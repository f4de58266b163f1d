# A tool given a .s file that does not assemble must report
# "<file>: line N: ..." on stderr and exit exactly 1 — not abort.
# WILL_FAIL would also accept a SIGABRT, so the code is checked here.
#   -DTOOL=<binary>   the tool to run on the file
#   -DWORK=<dir>      scratch directory for the malformed source
set(src ${WORK}/malformed.s)
file(WRITE ${src} "addi x99, x0, 1\n")
execute_process(
    COMMAND ${TOOL} ${src}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "${TOOL} exited '${rc}', expected 1; stderr: ${err}")
endif()
string(FIND "${err}" "${src}: line 1:" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${TOOL} stderr lacks '${src}: line 1:': ${err}")
endif()
