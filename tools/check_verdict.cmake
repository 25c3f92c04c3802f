# Runs one E-bench at its default size and passes only when it exits 0 and
# every result line it prints reads [REPRODUCED].
#
#   cmake -DBENCH=build/bench/bench_e01_tile_latency -P tools/check_verdict.cmake
#
# ctest runs this for each bench_eNN under the `verdicts` label
# (ctest -L verdicts).
if(NOT BENCH)
  message(FATAL_ERROR "usage: cmake -DBENCH=<bench binary> -P check_verdict.cmake")
endif()
execute_process(COMMAND ${BENCH} RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${code}")
endif()
if(NOT out MATCHES "result: \\[REPRODUCED\\]")
  message(FATAL_ERROR "${BENCH} printed no [REPRODUCED] result")
endif()
if(out MATCHES "result: \\[DIVERGES\\]")
  message(FATAL_ERROR "${BENCH} printed a [DIVERGES] result")
endif()
