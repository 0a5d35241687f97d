# Negative check for telemetry_check: copy the smoke run's metrics.json
# with one identity broken (more oom-failed evaluations than failed
# evaluations) and require the checker to reject it: exit status 1 and
# no "metrics OK" summary.

file(READ ${OUT_DIR}/metrics.json metrics)
string(REGEX REPLACE "\"mem.oom_failed_evals\":[0-9]+"
    "\"mem.oom_failed_evals\":1000000000" doctored "${metrics}")
if(doctored STREQUAL metrics)
    message(FATAL_ERROR "metrics.json has no mem.oom_failed_evals counter")
endif()
file(WRITE ${OUT_DIR}/doctored_metrics.json "${doctored}")

execute_process(
    COMMAND ${TELEMETRY_CHECK} metrics ${OUT_DIR}/doctored_metrics.json
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR out MATCHES "metrics OK")
    message(FATAL_ERROR
        "telemetry_check accepted a doctored metrics.json (rc=${rc}):\n"
        "${out}\n${err}")
endif()
