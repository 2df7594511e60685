# Live-monitoring smoke test: the whole loop on a scripted shell session.
# A spawned cross-product query must show up in `.ps` mid-flight (eval
# phase, live memory figures), the watchdog must cancel it while well-
# behaved queries pass untouched, the cancellation must appear as the
# typed `watchdog_cancelled` outcome in the query log / rdfql_stats, the
# sampler's snapshot file must render through rdfql_top --once, and the
# OpenMetrics exposition (build info included) must lint clean.
#
# Run as: cmake -DSHELL=<rdfql_shell> -DSTATS=<rdfql_stats>
#               -DTOP=<rdfql_top> -DOUT_DIR=<scratch dir>
#               -P live_monitor_smoke.cmake
if(NOT DEFINED SHELL OR NOT DEFINED STATS OR NOT DEFINED TOP
   OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "pass -DSHELL= -DSTATS= -DTOP= -DOUT_DIR=")
endif()

set(log "${OUT_DIR}/live_monitor_smoke.jsonl")
set(metrics "${OUT_DIR}/live_monitor_smoke_metrics.txt")
set(telemetry "${OUT_DIR}/live_monitor_smoke_telemetry.json")
file(REMOVE "${log}" "${metrics}" "${telemetry}")

# A graph of 200 disjoint p-edges: the spawned 4-way cross product is
# 200^4 pairs — minutes of work, so only the watchdog ends it.
set(script "")
foreach(i RANGE 1 200)
  string(APPEND script "triple g s${i} p o${i}\n")
endforeach()
string(APPEND script
       "spawn g ((?a p ?x) AND ((?b p ?y) AND ((?c p ?z) AND (?d p ?w))))\n")
# Sleep to mid-flight (budget is 500ms), then look at the registry while
# the offender is still running.
string(APPEND script ".sleep 250\n")
string(APPEND script ".ps\n")
# A well-behaved query in the same session: must pass untouched.
string(APPEND script "query g (?x p ?y)\n")
string(APPEND script ".wait\n")
string(APPEND script ".jobs\n")
string(APPEND script ".stats\n")
string(APPEND script "quit\n")
file(WRITE "${OUT_DIR}/live_monitor_smoke_input.txt" "${script}")

execute_process(
  COMMAND "${SHELL}" --watchdog-wall-ms=500 --telemetry-interval-ms=100
          --telemetry-out=${telemetry} --query-log=${log}
          --metrics-out=${metrics}
  INPUT_FILE "${OUT_DIR}/live_monitor_smoke_input.txt"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
  TIMEOUT 120)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "shell exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

# `.ps` mid-flight: one registered query, in the eval phase, with the
# live-figure columns present and the right fragment attributed.
foreach(needle
        "in-flight: 1" "LIVE-MEM" " eval " "SPARQL\\[A\\]"
        "watchdog: query exceeded max_wall_ms=500")
  if(NOT out MATCHES "${needle}")
    message(FATAL_ERROR "shell output missing `${needle}`:\n${out}")
  endif()
endforeach()
# The well-behaved query ran to completion (its result table includes the
# last edge) while the offender was being cancelled.
if(NOT out MATCHES "s200")
  message(FATAL_ERROR "fast query did not complete:\n${out}")
endif()

# The query log carries the typed outcome, and rdfql_stats aggregates it.
execute_process(
  COMMAND "${STATS}" "${log}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rdfql_stats report failed (${rc})\n${out}${err}")
endif()
foreach(needle "watchdog_cancelled +1" "ok +1")
  if(NOT out MATCHES "${needle}")
    message(FATAL_ERROR "stats report missing `${needle}`:\n${out}")
  endif()
endforeach()

# rdfql_top renders the sampler's final snapshot (written by the shell's
# StopTelemetry tick on exit).
execute_process(
  COMMAND "${TOP}" --once "${telemetry}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rdfql_top --once failed (${rc})\n${out}${err}")
endif()
foreach(needle "watchdog-cancelled: 1" "in-flight: 0" "queries:")
  if(NOT out MATCHES "${needle}")
    message(FATAL_ERROR "rdfql_top frame missing `${needle}`:\n${out}")
  endif()
endforeach()

# The OpenMetrics exposition lints clean and carries the new series.
execute_process(
  COMMAND "${STATS}" --lint-openmetrics=${metrics}
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "openmetrics lint failed (${rc})\n${out}${err}")
endif()
file(READ "${metrics}" metrics_text)
foreach(needle
        "rdfql_build_info" "rdfql_engine_queries_watchdog_cancelled_total 1"
        "rdfql_engine_queries_active 0")
  if(NOT metrics_text MATCHES "${needle}")
    message(FATAL_ERROR "metrics missing `${needle}`:\n${metrics_text}")
  endif()
endforeach()
