# Argument-validation test for the example tools, run as a CMake script:
#
#   cmake -DSURVEY=<vulnerability_survey> -DCOMPARE=<strategy_compare>
#         -DPLANNER=<scan_planner> -DCLI=<tass_cli> -DDATA=<repo>/data
#         -DWORK=<work dir> [-DCOLDSTART=<micro_coldstart>]
#         -P tests/examples_args.cmake
#
# A malformed or out-of-range number (or an unknown protocol name, prefix
# mode or option) must print `error:` and exit 1 before any work starts:
# never a library precondition abort, never a silent partial parse or
# default. micro_coldstart, when built, must reject out-of-range flags
# with its usage line and exit 2 rather than narrow them.
cmake_minimum_required(VERSION 3.20)

foreach(var SURVEY COMPARE PLANNER CLI DATA WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "examples_args: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# check(<what> <exit> <stderr regex> <got exit> <got stderr>)
function(check what expect_code stderr_regex code err)
  if(NOT "${code}" STREQUAL "${expect_code}" OR
     NOT err MATCHES "${stderr_regex}")
    message(FATAL_ERROR "${what}: exit '${code}' (want ${expect_code}), "
                        "stderr must match '${stderr_regex}'\n"
                        "stderr:\n${err}")
  endif()
  message(STATUS "ok: ${what}")
endfunction()

# expect(<exit> <stderr regex> <program> <args...>); runs in ${WORK} so
# any file a tool writes stays there.
function(expect expect_code stderr_regex program)
  execute_process(COMMAND "${program}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 120)
  get_filename_component(name "${program}" NAME)
  string(REPLACE ";" " " shown "${name} ${ARGN}")
  check("${shown}" ${expect_code} "${stderr_regex}" "${code}" "${err}")
endfunction()

expect(1 "error: phi" "${SURVEY}" https 2)
expect(1 "error: phi" "${SURVEY}" https 0.5junk)
expect(1 "error: vulnerable_rate" "${SURVEY}" https 0.5 nan)
# A vulnerable rate of 0 is valid; the relative error against a ground
# truth of 0 is undefined and must read n/a, never nan.
execute_process(COMMAND "${SURVEY}" https 0.5 0
                WORKING_DIRECTORY "${WORK}"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 120)
if(NOT code STREQUAL "0" OR out MATCHES "nan" OR
   NOT out MATCHES "relative error +n/a")
  message(FATAL_ERROR "vulnerability_survey https 0.5 0: exit '${code}', "
                      "stdout must hold 'relative error n/a' and no nan\n"
                      "stdout:\n${out}")
endif()
message(STATUS "ok: vulnerability_survey https 0.5 0")
expect(1 "error: months" "${COMPARE}" https abc)
expect(1 "error: months" "${COMPARE}" https 0)
# An empty table path selects scan_planner's synthetic table. A list
# expansion would drop the empty argument, so this case is spelled out.
execute_process(COMMAND "${PLANNER}" "" https 1.5
                WORKING_DIRECTORY "${WORK}"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 120)
check("scan_planner '' https 1.5" 1 "error: phi" "${code}" "${err}")
expect(1 "error: phi" "${PLANNER}" "${DATA}/sample.pfx2as" https 0.5junk)
expect(1 "error: " "${PLANNER}" "${DATA}/sample.pfx2as" no-such-protocol)
expect(1 "error: prefix mode" "${PLANNER}" "${DATA}/sample.pfx2as" https 0.9
       lss)

# tass_cli rejects an option it does not know (here the retired
# `state info --huge`) instead of treating it as a positional argument.
set(image "${WORK}/args.tsim")
expect(0 "sealed" "${CLI}" state build "${DATA}/sample.pfx2as" /dev/null
       "${image}")
expect(0 "image OK" "${CLI}" state info "${image}")
expect(1 "error: unknown option '--huge'" "${CLI}" state info "${image}"
       --huge)

if(DEFINED COLDSTART)
  # 2^32 iterations once narrowed to int and ran as one iteration.
  expect(2 "--iters must be in .*usage: micro_coldstart" "${COLDSTART}"
         --iters 4294967296)
  expect(2 "--iters must be in .*usage: micro_coldstart" "${COLDSTART}"
         --iters 0)
  expect(2 "--prefixes must be in .*usage: micro_coldstart" "${COLDSTART}"
         --prefixes 16777217)
  expect(2 "--lookups must be in .*usage: micro_coldstart" "${COLDSTART}"
         --lookups 18446744073709551616)
  expect(2 "not a number" "${COLDSTART}" --prefixes -1)
endif()
