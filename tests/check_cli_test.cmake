# End-to-end test of `s3lb check` and the strict flag parsers: every
# corrupted fixture must be rejected with a non-zero exit and a
# validator-specific message; the intact inputs must pass. Invoked by
# ctest with -DCLI=<path-to-binary>.

if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<s3lb binary>")
endif()

set(WORK "${CMAKE_CURRENT_BINARY_DIR}/check_cli_test_work")
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

# Runs the CLI expecting failure; asserts stderr mentions `needle`.
function(run_cli_expect_failure needle)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "s3lb ${ARGN} should have failed:\n${out}")
  endif()
  if(NOT err MATCHES "${needle}")
    message(FATAL_ERROR
      "s3lb ${ARGN}: expected stderr to mention \"${needle}\", got:\n${err}")
  endif()
  message(STATUS "s3lb ${ARGN}: rejected with \"${needle}\" as expected")
endfunction()

# --- intact inputs pass ----------------------------------------------

run_cli(generate --out "${WORK}/w.csv" --users 40 --days 3
        --buildings 2 --aps 3 --seed 7)
run_cli(check trace --in "${WORK}/w.csv" --buildings 2 --aps 3)
run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/a.csv"
        --policy llf --buildings 2 --aps 3 --check count)
run_cli(check trace --in "${WORK}/a.csv" --buildings 2 --aps 3)

# --- fixture 1: trace referencing an AP outside the topology ---------

file(STRINGS "${WORK}/a.csv" lines)
set(row 0)
set(bad_ap "")
set(bad_load "")
foreach(line IN LISTS lines)
  math(EXPR row "${row} + 1")
  if(row LESS_EQUAL 2)  # format + column header lines
    string(APPEND bad_ap "${line}\n")
    string(APPEND bad_load "${line}\n")
  elseif(row EQUAL 3)
    # user,ap,building,... — aim the AP id far past buildings*aps = 6.
    string(REGEX REPLACE "^([0-9]+),([0-9]+)," "\\1,999," corrupted "${line}")
    string(APPEND bad_ap "${corrupted}\n")
    # ...,demand_mbps,group,rate_seed — blow up the demand field.
    string(REGEX REPLACE
           "^(.*),([0-9.eE+-]+),([0-9-]+|-),([0-9]+)$"
           "\\1,inf,\\3,\\4" corrupted "${line}")
    string(APPEND bad_load "${corrupted}\n")
  else()
    string(APPEND bad_ap "${line}\n")
    string(APPEND bad_load "${line}\n")
  endif()
endforeach()
file(WRITE "${WORK}/bad_ap.csv" "${bad_ap}")
file(WRITE "${WORK}/bad_load.csv" "${bad_load}")

run_cli_expect_failure("validate_trace.*unknown AP"
        check trace --in "${WORK}/bad_ap.csv" --buildings 2 --aps 3)

# --- fixture 2: assigned trace whose load breaks beta ∈ [1/n, 1] -----

run_cli_expect_failure("validate_load_state"
        check trace --in "${WORK}/bad_load.csv" --buildings 2 --aps 3)

# --- fixture 3: social model with a negative theta -------------------

# Hand-written 3-user model: the (0,1) pair has strong co-leaving
# history; every other tie is the type prior alone.
file(WRITE "${WORK}/good.model"
"# s3lb social model v1
alpha 0.3
co_leave_window_s 300
min_encounter_overlap_s 60
users 3
types 1
type_of_user 0 0 0
centroids 0.1 0.1 0.1 0.1 0.1 0.1
matrix 0.5
pairs 1
0 1 10 9 5
")
run_cli(check model --in "${WORK}/good.model")

# A negative type-matrix entry drives theta below zero for every pair
# without history (read_model does not range-check values).
file(READ "${WORK}/good.model" model_text)
string(REPLACE "matrix 0.5" "matrix -0.5" model_text "${model_text}")
file(WRITE "${WORK}/bad.model" "${model_text}")
run_cli_expect_failure("validate_social_graph.*negative"
        check model --in "${WORK}/bad.model")

# Abort mode stops at the first violation but still exits non-zero
# with the validator named.
run_cli_expect_failure("validate_social_graph"
        check model --in "${WORK}/bad.model" --mode abort)

# Hostile counts in an otherwise valid model fail cleanly: a pair count
# of 2^64 - 1 used to spin forever sizing the table, and a type count of
# 2^63 wrapped types * 6 and types^2 to 0, so empty centroid and matrix
# lines passed their arity checks and the loader read past them.
file(READ "${WORK}/good.model" good_text)
string(REPLACE "pairs 1" "pairs 18446744073709551615" huge_pairs "${good_text}")
file(WRITE "${WORK}/huge_pairs.model" "${huge_pairs}")
run_cli_expect_failure("cannot read model.*truncated pair list"
        check model --in "${WORK}/huge_pairs.model")
string(REPLACE "types 1" "types 9223372036854775808" huge_types
       "${good_text}")
string(REPLACE "centroids 0.1 0.1 0.1 0.1 0.1 0.1" "centroids" huge_types
       "${huge_types}")
string(REPLACE "matrix 0.5" "matrix" huge_types "${huge_types}")
file(WRITE "${WORK}/huge_types.model" "${huge_types}")
run_cli_expect_failure("cannot read model.*centroids arity mismatch"
        check model --in "${WORK}/huge_types.model")

# --- fixture 4: clique cover that does not partition the graph -------

file(WRITE "${WORK}/good.cover" "0 1\n2\n")
run_cli(check model --in "${WORK}/good.model" --cover "${WORK}/good.cover")

file(WRITE "${WORK}/bad.cover" "0 1\n")
run_cli_expect_failure("validate_clique_cover.*uncovered"
        check model --in "${WORK}/good.model" --cover "${WORK}/bad.cover")

# --- strict flag parsing ---------------------------------------------

run_cli_expect_failure("--users.*12abc"
        generate --out "${WORK}/x.csv" --users 12abc)
run_cli_expect_failure("--alpha.*number"
        train --in "${WORK}/a.csv" --out "${WORK}/m.model" --alpha 0.3x)
run_cli_expect_failure("--check must be"
        replay --in "${WORK}/w.csv" --out "${WORK}/y.csv"
        --policy llf --buildings 2 --aps 3 --check verbose)
run_cli_expect_failure("expected .s3lb check"
        check --in "${WORK}/w.csv")
