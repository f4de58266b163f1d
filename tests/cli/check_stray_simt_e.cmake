# diag-run on a program whose simt_e targets an addi (valid assembly,
# no simt_s) must report the precise trap and exit exactly 4 — not
# abort. WILL_FAIL would also accept a SIGABRT, so the code is checked.
#   -DTOOL=<diag-run>  the binary to run
#   -DENGINE=<name>    diag, ooo or golden
#   -DWORK=<dir>       scratch directory for the source
set(src ${WORK}/stray_simt_e.s)
file(WRITE ${src} "li a0, 0\nli a2, 4\nhead: addi s0, s0, 1\n"
                  "simt_e a0, a2, head\nebreak\n")
execute_process(
    COMMAND ${TOOL} --engine ${ENGINE} ${src}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc STREQUAL "4")
    message(FATAL_ERROR
        "diag-run --engine ${ENGINE} exited '${rc}', expected 4; "
        "stdout: ${out} stderr: ${err}")
endif()
string(FIND "${out}" "trap: simt_e at 0x100c without simt_s" at)
if(at EQUAL -1)
    message(FATAL_ERROR "stdout lacks the simt_e trap reason: ${out}")
endif()
