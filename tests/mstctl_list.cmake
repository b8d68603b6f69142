# `mstctl --mode=list` must print the golden file byte for byte: algorithm
# names, summaries, the optimal and workloads columns, the [exponential]
# marks and the registration order (sweeps expand "every algorithm" in that
# order).  Invoked by ctest as
#
#   cmake -DMSTCTL=<mstctl> -DEXPECTED=tests/data/mstctl_list.txt
#         -P tests/mstctl_list.cmake
#
# After an intended registry change, regenerate the golden file with
# `mstctl --mode=list > tests/data/mstctl_list.txt` and review its diff.

foreach(var MSTCTL EXPECTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "mstctl_list.cmake needs -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND ${MSTCTL} --mode=list
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "mstctl --mode=list: expected exit 0, got ${status}\n${err}")
endif()
file(READ ${EXPECTED} expected)
if(NOT out STREQUAL expected)
  message(FATAL_ERROR "mstctl --mode=list differs from ${EXPECTED}\n"
                      "--- got:\n${out}--- expected:\n${expected}")
endif()
