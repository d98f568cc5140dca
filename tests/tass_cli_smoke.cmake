# CLI smoke test for tass_cli, run as a CMake script:
#
#   cmake -DCLI=<tass_cli> -DDATA=<repo>/data -DWORK=<work dir>
#         -P tests/tass_cli_smoke.cmake
#
# Drives every seed-pipeline verb (rank, plan, reduce, state build,
# state info) on the checked-in sample tables for both families, checks
# that out-of-range or malformed numeric arguments are reported as
# `error:` with exit 1 (never a precondition abort or a silent partial
# parse), and that unknown verbs fall through to the usage text with
# exit 2.
cmake_minimum_required(VERSION 3.20)

foreach(var CLI DATA WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "tass_cli_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# The v4 seed: responsive addresses inside the sample table's prefixes
# (one outside the announced space, which attribution must count apart).
file(WRITE "${WORK}/seeds_v4.txt"
     "45.32.0.1\n45.32.0.2\n45.48.1.1\n100.0.0.7\n100.16.3.3\n"
     "100.200.0.1\n130.64.0.9\n133.1.1.1\n142.1.1.1\n9.9.9.9\n")
set(routes_v4 "${DATA}/sample.pfx2as")
set(seeds_v4 "${WORK}/seeds_v4.txt")
set(routes_v6 "${DATA}/sample6.pfx2as")
set(seeds_v6 "${DATA}/hitlist6.txt")

# run(<name> <exit> <stderr regex> [STDOUT <regex>] ARGS <args...>)
# Stdout is kept in ${WORK}/<name>.out.
function(run name expect_code stderr_regex)
  cmake_parse_arguments(RUN "" "STDOUT" "ARGS" ${ARGN})
  if(NOT DEFINED RUN_STDOUT)
    set(RUN_STDOUT "^")  # anything, even nothing
  endif()
  execute_process(COMMAND "${CLI}" ${RUN_ARGS}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  file(WRITE "${WORK}/${name}.out" "${out}")
  if(NOT "${code}" STREQUAL "${expect_code}" OR NOT err MATCHES
     "${stderr_regex}" OR NOT out MATCHES "${RUN_STDOUT}")
    message(FATAL_ERROR "${name}: exit '${code}' (want ${expect_code}), "
                        "stderr must match '${stderr_regex}', stdout "
                        "'${RUN_STDOUT}'\nstderr:\n${err}\nstdout:\n${out}")
  endif()
  message(STATUS "ok: ${name}")
endfunction()

foreach(family v4 v6)
  set(routes "${routes_${family}}")
  set(seeds "${seeds_${family}}")
  run(rank_${family} 0 "loaded" STDOUT "density"
      ARGS rank "${routes}" "${seeds}" more 5 --family ${family})
  # The plan's whitelist feeds reduce, as it would feed a scanner.
  run(plan_${family} 0 "selection: k=" STDOUT "/"
      ARGS plan "${routes}" "${seeds}" 0.9 --family ${family})
  run(reduce_${family} 0 "reduce: " STDOUT "/"
      ARGS reduce "${WORK}/plan_${family}.out" --family ${family}
           --overshoot 10)
  run(state_build_${family} 0 "sealed"
      ARGS state build "${routes}" "${seeds}" "${WORK}/${family}.tsim"
           --family ${family})
  string(REPLACE "v" "IPv" family_name "${family}")
  run(state_info_${family} 0 "image OK" STDOUT "${family_name}"
      ARGS state info "${WORK}/${family}.tsim")

  # Out-of-range coverage targets are errors, not aborts.
  foreach(phi 1.5 nan 0)
    run(plan_${family}_phi_${phi} 1 "error: "
        ARGS plan "${routes}" "${seeds}" ${phi} --family ${family})
  endforeach()
endforeach()

run(sample_phi_2 1 "error: "
    ARGS sample "${routes_v4}" "${seeds_v4}" --phi 2)
run(reduce_overshoot_nan 1 "error: "
    ARGS reduce "${WORK}/plan_v4.out" --overshoot nan)

# Numeric arguments parse strictly: a sign, trailing junk or a value
# past the field's width is an error, never a silent wrap or truncation.
run(sample_floor_wide 1 "error: "
    ARGS sample "${routes_v4}" "${seeds_v4}" --floor 4294967297)
run(sample_budget_negative 1 "error: "
    ARGS sample "${routes_v4}" "${seeds_v4}" -5)
run(sample_seed_junk 1 "error: "
    ARGS sample "${routes_v4}" "${seeds_v4}" --seed 7x)
run(rank_n_negative 1 "error: "
    ARGS rank "${routes_v4}" "${seeds_v4}" more -1)
run(plan_phi_junk 1 "error: "
    ARGS plan "${routes_v4}" "${seeds_v4}" 0.5junk)
run(reduce_overshoot_junk 1 "error: "
    ARGS reduce "${WORK}/plan_v4.out" --overshoot 5x)
run(reduce_min_prefixes_junk 1 "error: "
    ARGS reduce "${WORK}/plan_v4.out" --min-prefixes 3.5)

# The v6-only verb spellings (<verb>6) were retired in favour of
# `--family v6`; they are unknown verbs now: usage text, exit 2.
foreach(verb IN ITEMS rank plan "state;build")
  string(REPLACE ";" "_" name "retired_${verb}6")
  run(${name} 2 "usage:"
      ARGS ${verb}6 "${routes_v6}" "${seeds_v6}" "${WORK}/retired.tsim")
endforeach()
