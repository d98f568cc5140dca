# Flag-validation smoke test for tass_serve, run as a CMake script:
#
#   cmake -DSERVE=<tass_serve> -P tests/tass_serve_flags.cmake
#
# Every numeric flag is range-checked before the daemon builds anything:
# a bad value prints `tass_serve: bad value for --flag` and exits 2. The
# image path does not exist, so a value that slipped past the parser
# would surface as the image-load failure (exit 1) instead. Only values
# that cannot make a lenient parser spawn a huge thread pool are used.
cmake_minimum_required(VERSION 3.20)

if(NOT DEFINED SERVE)
  message(FATAL_ERROR "tass_serve_flags: -DSERVE=... is required")
endif()

# expect(<exit> <stderr regex> <args...>)
function(expect expect_code stderr_regex)
  execute_process(COMMAND "${SERVE}" --v4 /nonexistent ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 30)
  if(NOT "${code}" STREQUAL "${expect_code}" OR
     NOT err MATCHES "${stderr_regex}")
    string(REPLACE ";" " " shown "${ARGN}")
    message(FATAL_ERROR "tass_serve ${shown}: exit '${code}' (want "
                        "${expect_code}), stderr must match "
                        "'${stderr_regex}'\nstderr:\n${err}")
  endif()
  string(REPLACE ";" " " shown "${ARGN}")
  message(STATUS "ok: ${shown}")
endfunction()

expect(2 "bad value for --port" --port x)
expect(2 "bad value for --port" --port 70000)
expect(2 "bad value for --threads" --threads x)
expect(2 "bad value for --feed-delay-ms" --feed-delay-ms -1)
expect(2 "bad value for --feed-delay-ms" --feed-delay-ms nan)
expect(2 "bad value for --feed-batch" --feed-batch 0)
expect(2 "bad value for --feed-as-rate" --feed-as-rate inf)
expect(2 "bad value for --feed-as-burst" --feed-as-burst 0.5)

# In-range values pass the parser and reach the image load.
expect(1 "cannot open" --port 0 --threads 1 --feed-batch 64
       --feed-delay-ms 2.5 --feed-as-rate 100 --feed-as-burst 0)
