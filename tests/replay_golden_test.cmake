# Replay golden: generate -> replay(llf) -> train -> replay(s3, s3-online)
# on a small seeded campus, holding every output file to a committed
# SHA-256. Byte-identical replay is the acceptance test of every change
# to the placement path: a digest that moves means placements moved.
# The S3 replays run at --threads 1 and 4 (thread-count invariance) and
# with --incremental-cliques (same placements, other graph path). The
# campus exercises ~1,260 exact distribution enumerations and 9 beam
# searches. Invoked by ctest with -DCLI=<path-to-binary>.
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
endfunction()

set(CAMPUS --buildings 3 --aps 8)
run_cli(generate --out "${WORK}/w.csv" --users 600 --days 8 ${CAMPUS}
        --seed 5)
run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/llf.csv" --policy llf
        ${CAMPUS})
run_cli(train --in "${WORK}/llf.csv" --out "${WORK}/model.txt")
foreach(threads 1 4)
  run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/s3_t${threads}.csv"
          --policy s3 --model "${WORK}/model.txt" ${CAMPUS}
          --threads ${threads})
  run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/online_t${threads}.csv"
          --policy s3-online --model "${WORK}/model.txt" ${CAMPUS}
          --threads ${threads})
endforeach()
run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/s3_incremental.csv"
        --policy s3 --model "${WORK}/model.txt" ${CAMPUS} --threads 1
        --incremental-cliques)

set(S3_DIGEST
    2b45362522b5e2d0a6d94c645d0c6db18183950f080b5fdade6795c13d209485)
set(ONLINE_DIGEST
    c701ed73c8a99a774ebcaa1484374dccbcb684ed6fd27721fbd2111e42850423)
set(golden
    "w.csv=33ffe340917e6b271a95d35cf256e334b6eed78f6132039de795e680cd0306cd"
    "llf.csv=00fc4875ab715d52e3b053d7b0f39e88665c7ed514b599b01a32690705a57521"
    "model.txt=10ce2e4c1aa1c31ff213a5df862720b27f1e1785aaf8222dbd0e6c111bea7389"
    "s3_t1.csv=${S3_DIGEST}"
    "s3_t4.csv=${S3_DIGEST}"
    "s3_incremental.csv=${S3_DIGEST}"
    "online_t1.csv=${ONLINE_DIGEST}"
    "online_t4.csv=${ONLINE_DIGEST}")
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
