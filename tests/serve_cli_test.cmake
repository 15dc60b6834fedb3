# End-to-end test of `s3lb serve`: train a model, drive the line
# protocol from a request script, and hold the responses to a golden.
# The pipeline is deterministic for a fixed model + script, so two runs
# must produce byte-identical output. Invoked by ctest with
# -DCLI=<path-to-binary>.

if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<s3lb binary>")
endif()

set(WORK "${CMAKE_CURRENT_BINARY_DIR}/serve_cli_test_work")
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

function(run_cli)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "s3lb ${ARGN} failed (${rc}):\n${out}\n${err}")
  endif()
  message(STATUS "s3lb ${ARGN}: OK")
endfunction()

# Model pipeline: generate -> replay(llf) -> train.
run_cli(generate --out "${WORK}/w.csv" --users 300 --days 5
        --buildings 2 --aps 1 --seed 3)
run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/collected.csv"
        --policy llf --buildings 2 --aps 1)
run_cli(train --in "${WORK}/collected.csv" --out "${WORK}/model.txt")

# Request script: two users share an AP neighbourhood for >10 min and
# leave within 5 min of each other — an encounter and a co-leaving the
# live model must record (visible as updated_pairs in `stats`).
file(WRITE "${WORK}/requests.txt"
"# serve protocol script
arrive 1 10 0 8 6 0 1.5
arrive 2 11 0 9 6 30 1.0
arrive 3 12 1 8 6 60 2.0
stats
depart 1 900
depart 2 1000
depart 3 1200
stats
depart 9 1300
arrive 1 10 0 8 6 1400 1.5
depart 1 1500
")

run_cli(serve --model "${WORK}/model.txt" --buildings 2 --aps 1
        --in "${WORK}/requests.txt" --out "${WORK}/responses.txt")
run_cli(serve --model "${WORK}/model.txt" --buildings 2 --aps 1
        --in "${WORK}/requests.txt" --out "${WORK}/responses2.txt")

# Determinism: identical runs, byte for byte.
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                "${WORK}/responses.txt" "${WORK}/responses2.txt"
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "serve responses differ between identical runs")
endif()

# Response golden: one line per request, in request order.
file(READ "${WORK}/responses.txt" responses)
string(REGEX MATCHALL "[^\n]+" lines "${responses}")
list(LENGTH lines nlines)
if(NOT nlines EQUAL 11)
  message(FATAL_ERROR "expected 11 response lines, got ${nlines}:\n${responses}")
endif()
set(expected_patterns
    "^place 1 [0-9]+$"
    "^place 2 [0-9]+$"
    "^place 3 [0-9]+$"
    "^stats placements=3 departures=0 active=3 fallback=0 overloads=0 rejected=0 updated_pairs=0$"
    "^gone 1$"
    "^gone 2$"
    "^gone 3$"
    "^stats placements=3 departures=3 active=0 fallback=0 overloads=0 rejected=0 updated_pairs=1$"
    "^gone 9 unknown$"
    "^place 1 [0-9]+$"
    "^gone 1$")
set(i 0)
foreach(pattern IN LISTS expected_patterns)
  list(GET lines ${i} line)
  if(NOT line MATCHES "${pattern}")
    message(FATAL_ERROR
            "response line ${i} mismatch: got \"${line}\", want ${pattern}")
  endif()
  math(EXPR i "${i} + 1")
endforeach()
message(STATUS "serve golden: 11/11 response lines match")

# A social policy without a model must be refused.
execute_process(COMMAND ${CLI} serve --buildings 2 --aps 1
                        --in "${WORK}/requests.txt"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "serve --policy s3 without --model should fail")
endif()

# s3-online keeps a learner of its own beside the one every serve
# domain runs: serve refuses it, naming s3 as the policy to use.
execute_process(COMMAND ${CLI} serve --policy s3-online
                        --model "${WORK}/model.txt" --buildings 2 --aps 1
                        --in "${WORK}/requests.txt"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "serve --policy s3-online should fail")
endif()
if(NOT err MATCHES "s3 already learns")
  message(FATAL_ERROR "serve --policy s3-online: unexpected message: ${err}")
endif()

# Baselines need no model.
run_cli(serve --policy llf --buildings 2 --aps 1
        --in "${WORK}/requests.txt" --out "${WORK}/llf_responses.txt")
