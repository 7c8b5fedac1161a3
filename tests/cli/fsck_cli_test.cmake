# faultyrank_fsck command-line test, run as a CMake script:
#
#   cmake -DFSCK=<path to faultyrank_fsck> -DWORK_DIR=<scratch dir> \
#         -P fsck_cli_test.cmake
#
# 1. Round trip on a tiny image: create (whose bytes must hash to the
#    recorded SHA-256), inject all eight scenarios, check --repair
#    --undo (must verify consistent), then a plain check must come back
#    clean.
# 2. Undo: restore from the undo file brings back the injected image,
#    whose check reports the same findings as before the repair; an
#    undo file that cannot be written fails the check (exit 1) and
#    leaves the image byte-for-byte unchanged.
# 3. Every malformed numeric flag value exits with exactly 2 (usage),
#    before any image is written.
if(NOT FSCK OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DFSCK=<fsck> -DWORK_DIR=<dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(IMG "${WORK_DIR}/tiny.img")

# Runs fsck with the given arguments and fails unless it exits with
# `want`. The combined output lands in `out_var`.
function(fsck want out_var)
  execute_process(COMMAND "${FSCK}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc STREQUAL "${want}")
    list(JOIN ARGN " " args)
    message(FATAL_ERROR "faultyrank_fsck ${args}: exit ${rc}, want ${want}\n${out}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

set(UNDO "${WORK_DIR}/tiny.undo")
fsck(0 out create "${IMG}" --files 200 --osts 2 --seed 7)
# The created image is pinned byte for byte: this hash was recorded when
# ByteWriter appended each field by vector::insert, and any writer must
# reproduce it. The hash covers the namespace too, so a change to the
# image format, the namespace generator or its RNG moves it; only such a
# deliberate change may. Regenerating: after one, run
# `faultyrank_fsck create <img> --files 200 --osts 2 --seed 7`, check
# that the change explains the new bytes, and paste `sha256sum <img>`
# (also printed below on failure) over want_created.
file(SHA256 "${IMG}" created)
set(want_created "aada93eead62b147f4a414467bce795389865e9f74e9708fa707afaca858d511")
if(NOT created STREQUAL want_created)
  message(FATAL_ERROR "create wrote different image bytes:\n"
                      "  sha256 ${created}\n  want   ${want_created}\n"
                      "A format, namespace-generator or RNG change moves "
                      "this hash; see the regeneration note above.")
endif()
fsck(0 out inject "${IMG}" --scenario all --seed 9)
fsck(1 out check "${IMG}")
if(NOT out MATCHES "findings: ([0-9]+)\n")
  message(FATAL_ERROR "check printed no findings count:\n${out}")
endif()
set(injected_findings "${CMAKE_MATCH_1}")
fsck(0 out check "${IMG}" --repair --undo "${UNDO}")
if(NOT out MATCHES "consistent after repair: yes")
  message(FATAL_ERROR "check --repair did not verify consistent:\n${out}")
endif()
fsck(0 out check "${IMG}")
if(NOT out MATCHES "findings: 0\n")
  message(FATAL_ERROR "re-check after repair is not clean:\n${out}")
endif()

fsck(0 out restore "${IMG}" --undo "${UNDO}")
fsck(1 out check "${IMG}")
if(NOT out MATCHES "findings: ${injected_findings}\n")
  message(FATAL_ERROR "restored image does not report the injected "
                      "${injected_findings} findings:\n${out}")
endif()
file(SHA256 "${IMG}" before)
fsck(1 out check "${IMG}" --repair --undo "${WORK_DIR}/missing/tiny.undo")
file(SHA256 "${IMG}" after)
if(NOT before STREQUAL after)
  message(FATAL_ERROR "a failed undo write still saved the repaired image")
endif()

set(BAD "${WORK_DIR}/bad.img")
foreach(flags IN ITEMS
    "--files;abc;--osts;2"
    "--files;5x0"
    "--files;99999999999999999999999"
    "--seed;-3"
    "--seed;+3"
    "--osts;abc")
  fsck(2 out create "${BAD}" ${flags})
  if(EXISTS "${BAD}")
    list(JOIN flags " " args)
    message(FATAL_ERROR "create ${args} wrote an image despite exit 2")
  endif()
endforeach()
