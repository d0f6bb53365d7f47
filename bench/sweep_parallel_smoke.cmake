# CTest script: run the same multi-seed sweep with --jobs=1, --jobs=4 and
# --jobs=2 --cell-threads=2 and require byte-identical JSON reports — worker
# count (with its per-worker arena reuse and shared SystemBlueprint cache)
# AND the intra-cell parallel engine must all be invisible in the output.
# Reuse against a fresh build is byte-compared by test_arena's dirty-state
# fuzz, the per-mode determinism tests in tests/core and bench_memory.
# Invoked by the sweep_parallel_smoke test with -DDFLYSIM=<binary>
# -DWORK_DIR=<build dir>.
set(ARGS --app=UR:64 --scale=64 --seed=42 --sweep=4)

execute_process(
  COMMAND ${DFLYSIM} ${ARGS} --jobs=1 --json=${WORK_DIR}/sweep_seq.json
  RESULT_VARIABLE SEQ_RESULT OUTPUT_QUIET)
if(NOT SEQ_RESULT EQUAL 0)
  message(FATAL_ERROR "sequential sweep failed with exit code ${SEQ_RESULT}")
endif()

execute_process(
  COMMAND ${DFLYSIM} ${ARGS} --jobs=4 --json=${WORK_DIR}/sweep_par.json
  RESULT_VARIABLE PAR_RESULT OUTPUT_QUIET)
if(NOT PAR_RESULT EQUAL 0)
  message(FATAL_ERROR "parallel sweep failed with exit code ${PAR_RESULT}")
endif()

# Both parallelism levels at once: 2 worker threads x 2 engine domains.
execute_process(
  COMMAND ${DFLYSIM} ${ARGS} --jobs=2 --cell-threads=2
          --json=${WORK_DIR}/sweep_cellpar.json
  RESULT_VARIABLE CELLPAR_RESULT OUTPUT_QUIET)
if(NOT CELLPAR_RESULT EQUAL 0)
  message(FATAL_ERROR "--cell-threads=2 sweep failed with exit code ${CELLPAR_RESULT}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/sweep_seq.json ${WORK_DIR}/sweep_par.json
  RESULT_VARIABLE DIFF_RESULT)
if(NOT DIFF_RESULT EQUAL 0)
  message(FATAL_ERROR "--jobs=4 sweep JSON differs from --jobs=1 (determinism regression)")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/sweep_seq.json ${WORK_DIR}/sweep_cellpar.json
  RESULT_VARIABLE CELLPAR_DIFF_RESULT)
if(NOT CELLPAR_DIFF_RESULT EQUAL 0)
  message(FATAL_ERROR "--jobs=2 --cell-threads=2 sweep JSON differs from the sequential "
                      "run (intra-cell parallel engine determinism regression)")
endif()
message(STATUS "jobs=1, jobs=4 and jobs=2 --cell-threads=2 sweep reports are byte-identical")
