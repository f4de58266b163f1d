# Diff a tool's output for every bundled workload against the
# checked-in snapshot. Regenerate with tools/update_goldens.sh.
#   -DTOOL=<binary>   the tool to run
#   -DARGS=<arg>      its argument (default: the analyzers'
#                     --all-workloads --json)
#   -DGOLDEN=<file>   the snapshot to compare byte-for-byte
if(NOT DEFINED ARGS)
    set(ARGS --all-workloads --json)
endif()
execute_process(
    COMMAND ${TOOL} ${ARGS}
    OUTPUT_VARIABLE actual
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${TOOL} exited ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    string(LENGTH "${actual}" alen)
    string(LENGTH "${expected}" elen)
    message(FATAL_ERROR
        "${TOOL} output diverged from ${GOLDEN} "
        "(${alen} vs ${elen} bytes); if the change is intentional, "
        "run tools/update_goldens.sh <build-dir> and commit the diff")
endif()
