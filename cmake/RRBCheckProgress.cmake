# Run a distributed campaign and check that its last progress line counts
# every cell:
#
#   cmake -DEXE=<rrb_campaign> -DSPEC=<spec> -DOUT=<dir> -DWORKERS=<k>
#         -DEXPECT=<done>/<total> -P RRBCheckProgress.cmake
#
# The driver prints "[progress] <done>/<total> cells, ..." while it
# supervises and once more after the last worker exits; that final line
# must read EXPECT, whichever worker computed which cell and however many
# it finished before the driver first polled its heartbeat.
if(NOT EXE OR NOT SPEC OR NOT OUT OR NOT WORKERS OR NOT EXPECT)
  message(FATAL_ERROR "usage: cmake -DEXE=<rrb_campaign> -DSPEC=<spec> -DOUT=<dir> -DWORKERS=<k> -DEXPECT=<done>/<total> -P RRBCheckProgress.cmake")
endif()
execute_process(
  COMMAND ${EXE} --spec ${SPEC} --out ${OUT} --distribute ${WORKERS}
          --threads 2
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rrb_campaign exited with ${rc}:\n${out}")
endif()
string(REGEX MATCHALL "\\[progress\\] [0-9]+/[0-9]+ cells" lines "${out}")
if(NOT lines)
  message(FATAL_ERROR "no [progress] line in the output:\n${out}")
endif()
list(GET lines -1 last)
if(NOT last STREQUAL "[progress] ${EXPECT} cells")
  message(FATAL_ERROR "last progress line is '${last}', expected "
    "'[progress] ${EXPECT} cells':\n${out}")
endif()
message(STATUS "${last}")
