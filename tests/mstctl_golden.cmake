# `mstctl <ARGS>` must exit with EXIT (default 0) and print the golden file
# EXPECTED byte for byte on stdout.  ARGS separates the arguments with `|`
# (a `;` would split the -D value into a list).  Invoked by ctest as
#
#   cmake -DMSTCTL=<mstctl> "-DARGS=--mode=validate|--schedule=FILE"
#         -DEXIT=1 -DEXPECTED=<golden file> -P tests/mstctl_golden.cmake
#
# The goldens pin user-visible output: the registry listing
# (tests/data/mstctl_list.txt: names, summaries, the optimal and workloads
# columns, the [exponential] marks and the registration order), the
# schedule renderings and the validator's reports (tests/data/golden/).
# After an intended output change, regenerate the golden file with
# `mstctl <args> > <golden file>` and review its diff.

foreach(var MSTCTL ARGS EXPECTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "mstctl_golden.cmake needs -D${var}=...")
  endif()
endforeach()
if(NOT DEFINED EXIT)
  set(EXIT 0)
endif()

string(REPLACE "|" ";" args "${ARGS}")
string(REPLACE "|" " " shown "${ARGS}")
execute_process(
  COMMAND ${MSTCTL} ${args}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL EXIT)
  message(FATAL_ERROR "mstctl ${shown}: expected exit ${EXIT}, got ${status}\n${err}")
endif()
file(READ ${EXPECTED} expected)
if(NOT out STREQUAL expected)
  message(FATAL_ERROR "mstctl ${shown} differs from ${EXPECTED}\n"
                      "--- got:\n${out}--- expected:\n${expected}")
endif()
