# Times near the top of the 64-bit range must be solved as documented, never
# hit signed overflow or an internal assertion.  Invoked by ctest as
#
#   cmake -DMSTCTL=<mstctl> -DWORKDIR=<scratch directory>
#         -P tests/overflow_smoke.cmake
#
#   * A slave or leg whose n-task pipeline overflows is skipped by the
#     makespan search: with a second, fast source, 3 tasks take 4.
#   * The fork greedy's makespan search skips it the same way.
#   * A node whose exec would overflow is never formed: the only processor
#     of `fork 1`, `chain 1` or a one-leg spider cannot finish one task
#     within the deadline, so 0 tasks fit.  Its link latency plus its w
#     overflows, but the decision form stops before any negative emission,
#     so it needs no such bound.
#   * A chain whose horizon T-infinity, or whose prefix link latencies,
#     overflow is rejected (exit 2) with a message naming the limit, never
#     answered with a wrong "optimal".
#   * A pipeline ending past 2^61 is still a candidate: single-node on one
#     processor whose c is 3e18 finishes one task at 3e18 + 1.
#   * A baseline whose ASAP timing would pass the largest time (the slow
#     slave's c + w) is rejected (exit 2) naming the limit, never answered
#     with a wrapped makespan.
#   * A schedule file given to `--mode=validate` is bounded at parse: a
#     hop arrival C + c or an end T + w past the largest time, or a task
#     count beyond the file's task lines, exits 2 with a message (never a
#     signed overflow or a bad_alloc); a negative time parses but is a
#     structure violation (exit 1).

foreach(var MSTCTL WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "overflow_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

# run(<name> <platform text> <expected stdout regex> <mstctl args>...)
function(run name platform expected)
  set(file ${WORKDIR}/overflow_${name}.txt)
  file(WRITE ${file} "${platform}")
  execute_process(
    COMMAND ${MSTCTL} --platform=${file} ${ARGN}
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${name}: expected exit 0, got ${status}\n${out}${err}")
  endif()
  if(NOT out MATCHES "${expected}")
    message(FATAL_ERROR "${name}: output does not match \"${expected}\":\n${out}")
  endif()
endfunction()

# rejected(<name> <platform text> <expected stderr regex> <mstctl args>...)
function(rejected name platform expected)
  set(file ${WORKDIR}/overflow_${name}.txt)
  file(WRITE ${file} "${platform}")
  execute_process(
    COMMAND ${MSTCTL} --platform=${file} ${ARGN}
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "${name}: expected exit 2, got ${status}\n${out}${err}")
  endif()
  if(NOT err MATCHES "${expected}")
    message(FATAL_ERROR "${name}: error does not match \"${expected}\":\n${err}")
  endif()
endfunction()

# validate(<name> <schedule text> <expected exit> <expected output regex>)
function(validate name schedule expected_status expected)
  set(file ${WORKDIR}/overflow_${name}.txt)
  file(WRITE ${file} "${schedule}")
  execute_process(
    COMMAND ${MSTCTL} --mode=validate --schedule=${file}
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL expected_status)
    message(FATAL_ERROR "${name}: expected exit ${expected_status}, got ${status}\n${out}${err}")
  endif()
  if(NOT "${out}${err}" MATCHES "${expected}")
    message(FATAL_ERROR "${name}: output does not match \"${expected}\":\n${out}${err}")
  endif()
endfunction()

set(solve --mode=solve --algo=optimal --tasks=3)
run(fork "fork 2\n4000000000000000000 1\n1 1\n" "optimal +yes +4 " ${solve})
run(spider "spider 2\nleg 1\n4000000000000000000 1\nleg 1\n1 1\n" "optimal +yes +4 " ${solve})
run(fork_greedy "fork 2\n4000000000000000000 1\n1 1\n" "greedy +no +4 "
    --mode=solve --algo=greedy --tasks=3)
set(far --mode=max-tasks --algo=optimal --deadline=9000000000000000000)
run(far_node "fork 1\n5000000000000000000 5000000000000000000\n" "optimal +yes +0 +0 " ${far})
run(far_node_chain "chain 1\n5000000000000000000 5000000000000000000\n" "optimal +yes +0 +0 "
    ${far})
run(far_node_spider "spider 1\nleg 1\n5000000000000000000 5000000000000000000\n"
    "optimal +yes +0 +0 " ${far})
rejected(chain_horizon "chain 2\n4000000000000000000 1\n1 1\n"
         "requirement failed.*largest time 9223372036854775807" ${solve})
rejected(chain_latency
         "chain 3\n4000000000000000000 1\n4000000000000000000 1\n4000000000000000000 1\n"
         "requirement failed.*largest time 9223372036854775807"
         --mode=max-tasks --algo=optimal --deadline=5)
set(slow_fork "fork 2\n5000000000000000000 5000000000000000000\n1 1\n")
foreach(algo forward-greedy single-node round-robin)
  rejected(asap_${algo} "${slow_fork}" "largest time 9223372036854775807"
           --mode=solve --algo=${algo} --tasks=3)
endforeach()
set(one_task --mode=solve --algo=single-node --tasks=1)
run(chain_single_node "chain 1\n3000000000000000000 1\n" "single-node +no +3000000000000000001 "
    ${one_task})
run(spider_single_node "spider 1\nleg 1\n3000000000000000000 1\n"
    "single-node +no +3000000000000000001 " ${one_task})

set(max 9223372036854775807)
validate(validate_arrival "chain_schedule\nchain 1\n5 5\ntasks 1\n0 0 ${max}\n" 2
         "task 0: arrival C_k \\+ c_k on link 0 exceeds the largest time ${max}")
validate(validate_end "chain_schedule\nchain 1\n5 1\ntasks 1\n0 ${max} 0\n" 2
         "task 0: end T \\+ w exceeds the largest time ${max}")
validate(validate_chain_count "chain_schedule\nchain 1\n5 5\ntasks 100000000000\n0 5 0\n" 2
         "unexpected end of schedule")
validate(validate_spider_count
         "spider_schedule\nspider 1\nleg 1\n5 5\ntasks 999999999999999999\n0 0 5 0\n" 2
         "unexpected end of schedule")
validate(validate_negative "chain_schedule\nchain 2\n1 1\n1 1\ntasks 1\n1 5 -7 0\n" 1
         "structure violated by task 0: negative start or emission time")
