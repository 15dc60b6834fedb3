# Replay golden: generate -> replay(llf) -> train -> replay(s3, s3-online)
# on a small seeded campus, holding every output file to a committed
# SHA-256. Byte-identical replay is the acceptance test of every change
# to the placement path: a digest that moves means placements moved.
# The S3 replays run at --threads 1 and 4 (thread-count invariance). The
# campus exercises ~1,260 exact distribution enumerations and 9 beam
# searches. The other baselines (llf-demand, rssi, random) replay once
# each. S3 and s3-online also replay at --threads 1 and 4 under a
# written fault plan: an AP outage, a controller outage (so each domain
# runs a primary and a backup controller, with one failover) and a
# clique-budget squeeze that makes the clique search abort on its node
# budget 3,584 times in the s3 replay. The model is also trained in the
# binary encoding and over the last 4 days only (the history slice),
# and an S3 replay from the binary model must place exactly like the
# one from the text model. Two replicated s3-online replays clone each
# domain's OnlineS3Selector into its backup: one under the plan (one
# failover, one rejoin, one installed snapshot, truncated log) and one
# under the plan without its controller outage (no failover). Both must
# place exactly like the unreplicated fault-plan replay. Invoked by
# ctest with -DCLI=<path-to-binary>.
#
# Regenerate the digests only for an intended behaviour change: run the
# commands below and take `sha256sum` of each file.

if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<s3lb binary>")
endif()

set(WORK "${CMAKE_CURRENT_BINARY_DIR}/replay_golden_test_work")
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
  set(CLI_OUT "${out}" PARENT_SCOPE)
endfunction()

set(CAMPUS --buildings 3 --aps 8)
run_cli(generate --out "${WORK}/w.csv" --users 600 --days 8 ${CAMPUS}
        --seed 5)
run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/llf.csv" --policy llf
        ${CAMPUS})
run_cli(train --in "${WORK}/llf.csv" --out "${WORK}/model.txt")
run_cli(train --in "${WORK}/llf.csv" --out "${WORK}/model.bin"
        --model-format binary)
run_cli(train --in "${WORK}/llf.csv" --out "${WORK}/model_h4.txt"
        --history 4)
run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/s3_bin.csv"
        --policy s3 --model "${WORK}/model.bin" ${CAMPUS} --threads 1)
foreach(threads 1 4)
  run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/s3_t${threads}.csv"
          --policy s3 --model "${WORK}/model.txt" ${CAMPUS}
          --threads ${threads})
  run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/online_t${threads}.csv"
          --policy s3-online --model "${WORK}/model.txt" ${CAMPUS}
          --threads ${threads})
endforeach()
foreach(policy llf-demand rssi random)
  run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/${policy}.csv"
          --policy ${policy} ${CAMPUS})
endforeach()

file(WRITE "${WORK}/plan.txt"
"s3fault v1
ap-outage 3 100000 160000
controller-outage 1 200000 260000
clique-budget 0 691200 4
")
set(FAULTS --fault-plan "${WORK}/plan.txt" --fault-seed 3)
foreach(threads 1 4)
  run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/s3_fault_t${threads}.csv"
          --policy s3 --model "${WORK}/model.txt" ${CAMPUS}
          --threads ${threads} ${FAULTS})
  run_cli(replay --in "${WORK}/w.csv"
          --out "${WORK}/online_fault_t${threads}.csv"
          --policy s3-online --model "${WORK}/model.txt" ${CAMPUS}
          --threads ${threads} ${FAULTS})
endforeach()
run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/online_repl_truncate.csv"
        --policy s3-online --model "${WORK}/model.txt" ${CAMPUS} ${FAULTS}
        --replicas 1 --snapshot-every 200 --truncate --threads 4)
if(NOT CLI_OUT MATCHES " 1 failovers, .* 1 rejoins," OR
   NOT CLI_OUT MATCHES " 1 installed,")
  message(FATAL_ERROR "replicated s3-online replay did not fail over, "
                      "rejoin and install one snapshot:\n${CLI_OUT}")
endif()
file(WRITE "${WORK}/plan_no_outage.txt"
"s3fault v1
ap-outage 3 100000 160000
clique-budget 0 691200 4
")
run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/online_repl.csv"
        --policy s3-online --model "${WORK}/model.txt" ${CAMPUS}
        --fault-plan "${WORK}/plan_no_outage.txt" --fault-seed 3
        --replicas 1 --snapshot-every 200)

set(S3_DIGEST
    01ed6481cfba8cfd8b2df9187f920b0438cb209764c1f35ea3a215e70a99ceb6)
set(ONLINE_DIGEST
    8258d7e334a9845300efb561e02a15adad57c86af5a0c2db830fb13459628fbb)
set(S3_FAULT_DIGEST
    02a7a2bfe41553464e0991e21d8475780c74e1a18851fb5b10d94402e3c9184b)
set(ONLINE_FAULT_DIGEST
    00ca39247385311fabf2807af3d7c3d60930ea711c5fb0fb97ca3c605b44e16f)
set(golden
    "w.csv=33ffe340917e6b271a95d35cf256e334b6eed78f6132039de795e680cd0306cd"
    "llf.csv=00fc4875ab715d52e3b053d7b0f39e88665c7ed514b599b01a32690705a57521"
    "model.txt=10ce2e4c1aa1c31ff213a5df862720b27f1e1785aaf8222dbd0e6c111bea7389"
    "model.bin=3349a002dec153a411980fb010175ec13a063071e16c7e068a4097451e12ef47"
    "model_h4.txt=4b3ff13e589b651798478361c55cb0aefe59c73670b9f8a0c46fa8f2d054a8d4"
    "s3_bin.csv=${S3_DIGEST}"
    "s3_t1.csv=${S3_DIGEST}"
    "s3_t4.csv=${S3_DIGEST}"
    "online_t1.csv=${ONLINE_DIGEST}"
    "online_t4.csv=${ONLINE_DIGEST}"
    "llf-demand.csv=30466eb5a22552d0e17cd7a503595c0616bd38cea790eed3cb643f3f811f9a77"
    "rssi.csv=c52893cde6dab4aa34f17c23ba27816d06b226b81f88a2d75dade740d628f8e3"
    "random.csv=e0d709784d56ed3e1f1d239f15b78c50d740eef356be19c9bc2936bdbc005a30"
    "s3_fault_t1.csv=${S3_FAULT_DIGEST}"
    "s3_fault_t4.csv=${S3_FAULT_DIGEST}"
    "online_fault_t1.csv=${ONLINE_FAULT_DIGEST}"
    "online_fault_t4.csv=${ONLINE_FAULT_DIGEST}"
    "online_repl_truncate.csv=${ONLINE_FAULT_DIGEST}"
    "online_repl.csv=${ONLINE_FAULT_DIGEST}")
set(mismatches "")
foreach(entry IN LISTS golden)
  string(REPLACE "=" ";" parts "${entry}")
  list(GET parts 0 name)
  list(GET parts 1 want)
  file(SHA256 "${WORK}/${name}" got)
  if(NOT got STREQUAL want)
    string(APPEND mismatches "  ${name}: got ${got}, want ${want}\n")
  endif()
endforeach()
if(mismatches)
  message(FATAL_ERROR "replay golden digests differ:\n${mismatches}")
endif()
list(LENGTH golden n)
message(STATUS "replay golden: ${n}/${n} digests match")
