# End-to-end test of the replication layer through the CLI: `s3lb check
# fault-plan` linting (clean plan, line-numbered parse errors,
# overlapping windows, a loss over an outage, topology checks) and
# `s3lb replay --replicas` (deterministic across thread counts,
# transparent vs the outage-free run, flag validation). Invoked by
# ctest with -DCLI=<path-to-binary>.

if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<s3lb binary>")
endif()

set(WORK "${CMAKE_CURRENT_BINARY_DIR}/repl_cli_test_work")
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
  set(CLI_OUT "${out}" PARENT_SCOPE)
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

# --- check fault-plan -------------------------------------------------
# 2 buildings -> controllers 0 and 1; the trace below spans 2 days.

file(WRITE "${WORK}/churn.txt"
"s3fault v1
# one midday controller crash per domain, one per day
controller-outage 0 36000 50400
controller-outage 1 122400 136800
ap-outage 1 20000 40000
")
run_cli(check fault-plan --in "${WORK}/churn.txt" --buildings 2 --aps 3)

file(WRITE "${WORK}/inverted.txt"
"s3fault v1
controller-outage 0 500 100
")
run_cli_expect_failure("fault plan line 2"
        check fault-plan --in "${WORK}/inverted.txt")

file(WRITE "${WORK}/overlap.txt"
"s3fault v1
controller-outage 0 100 300
controller-outage 0 200 400
")
run_cli_expect_failure("outage windows overlap"
        check fault-plan --in "${WORK}/overlap.txt")

# A loss overlapping an outage of the same controller: its replica set
# cannot be lost while one replica is already down. `replay
# --fault-plan` refuses the plan by the same rule list.
file(WRITE "${WORK}/loss_over_outage.txt"
"s3fault v1
controller-outage 0 100 200
controller-loss 0 150 300
")
run_cli_expect_failure("controller-loss 0: outage windows overlap"
        check fault-plan --in "${WORK}/loss_over_outage.txt")

# Ids are only checkable against a topology: clean bare, flagged pinned.
file(WRITE "${WORK}/unknown.txt"
"s3fault v1
controller-outage 7 0 100
")
run_cli(check fault-plan --in "${WORK}/unknown.txt")
run_cli_expect_failure("unknown controller 7"
        check fault-plan --in "${WORK}/unknown.txt" --buildings 2 --aps 3)

# --- replicated replay ------------------------------------------------

run_cli(generate --out "${WORK}/w.csv" --users 60 --days 2
        --buildings 2 --aps 3 --seed 5)

# Deterministic across thread counts with backups and controller churn.
run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/repl_t1.csv"
        --policy llf --buildings 2 --aps 3 --replicas 2
        --fault-plan "${WORK}/churn.txt" --fault-seed 9 --threads 1)
run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/repl_t8.csv"
        --policy llf --buildings 2 --aps 3 --replicas 2
        --fault-plan "${WORK}/churn.txt" --fault-seed 9 --threads 8)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                "${WORK}/repl_t1.csv" "${WORK}/repl_t8.csv"
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR
    "replicated replay differs between --threads 1 and --threads 8")
endif()
message(STATUS "replicated replay threads 1 vs 8: byte-identical")

# Transparency: with a backup per domain, the run under controller
# churn is byte-identical to the same run with only the AP outage.
file(WRITE "${WORK}/no_churn.txt"
"s3fault v1
ap-outage 1 20000 40000
")
run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/plain.csv"
        --policy llf --buildings 2 --aps 3
        --fault-plan "${WORK}/no_churn.txt" --fault-seed 9)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                "${WORK}/repl_t1.csv" "${WORK}/plain.csv"
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR
    "failover with backups is not transparent: replicated run differs "
    "from the outage-free run")
endif()
message(STATUS "failover with backups: transparent (byte-identical)")

# A plan with controller outages switches replay to the replicated
# driver even without --replicas (defaulting to one backup).
run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/implicit.csv"
        --policy llf --buildings 2 --aps 3
        --fault-plan "${WORK}/churn.txt" --fault-seed 9)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                "${WORK}/implicit.csv" "${WORK}/plain.csv"
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "implicit replication (no --replicas) diverged")
endif()
message(STATUS "implicit replication on controller-outage plans: OK")

# Snapshots + truncation stay transparent, and a whole-replica-set
# loss routes to the replicated driver (adoption) even without
# --replicas — still byte-identical to the controller-fault-free run.
file(WRITE "${WORK}/loss.txt"
"s3fault v1
controller-outage 0 36000 50400
controller-loss 1 54000 64800
ap-outage 1 20000 40000
")
run_cli(check fault-plan --in "${WORK}/loss.txt" --buildings 2 --aps 3)
run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/snap.csv"
        --policy llf --buildings 2 --aps 3 --replicas 2
        --fault-plan "${WORK}/loss.txt" --fault-seed 9
        --snapshot-every 40 --truncate)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                "${WORK}/snap.csv" "${WORK}/plain.csv"
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR
    "snapshot catch-up + truncation + adoption is not transparent")
endif()
message(STATUS "snapshots, truncation and controller-loss adoption: "
               "transparent (byte-identical)")

# --- flag validation --------------------------------------------------

run_cli_expect_failure("--replicas needs --fault-plan"
        replay --in "${WORK}/w.csv" --out "${WORK}/x.csv"
        --policy llf --buildings 2 --aps 3 --replicas 2)
run_cli_expect_failure("heartbeat"
        replay --in "${WORK}/w.csv" --out "${WORK}/x.csv"
        --policy llf --buildings 2 --aps 3 --replicas 2
        --fault-plan "${WORK}/churn.txt" --heartbeat 0)
run_cli_expect_failure("--truncate needs --snapshot-every"
        replay --in "${WORK}/w.csv" --out "${WORK}/x.csv"
        --policy llf --buildings 2 --aps 3 --replicas 2
        --fault-plan "${WORK}/churn.txt" --truncate)
