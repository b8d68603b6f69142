# A makespan solve above the task limit (SolveOptions::cap, `--cap`) is a
# usage error: mstctl must exit 2 with a message naming the limit, before
# any instance is built.  Invoked by ctest as
#
#   cmake -DMSTCTL=<mstctl> -DPLATFORM=<fork platform file>
#         -P tests/task_limit_smoke.cmake

foreach(var MSTCTL PLATFORM)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "task_limit_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND ${MSTCTL} --mode=solve --platform=${PLATFORM} --algo=optimal --tasks=4000000000000
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got ${status}\n${out}${err}")
endif()
set(expected "4000000000000 tasks exceed the task limit SolveOptions::cap = 1048576")
string(FIND "${err}" "${expected}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name the limit (\"${expected}\"):\n${err}")
endif()
