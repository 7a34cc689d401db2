# Validates the --trace / --metrics / --report / --flight-dump outputs of
# the tools_recon_trace run (cmake -DTRACE=... -DMETRICS=... -DREPORT=...
# -DFLIGHT=... -P check_trace.cmake): the Chrome trace must contain spans
# from several subsystems attributed to more than one rank, the metrics CSV
# must carry the expected counters, the run report must join measured
# stage times against the perfmodel with per-rank efficiency rows, and the
# always-on flight rings must hold the device-transfer spans too.
foreach(var TRACE METRICS REPORT FLIGHT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_trace.cmake: -D${var}=<path> is required")
  endif()
endforeach()

file(READ ${TRACE} trace)
if(NOT trace MATCHES "\"traceEvents\"")
  message(FATAL_ERROR "${TRACE}: not a Chrome trace-event file")
endif()
foreach(cat pipeline minimpi sim filter)
  if(NOT trace MATCHES "\"cat\":\"${cat}\"")
    message(FATAL_ERROR "${TRACE}: missing ${cat} spans")
  endif()
endforeach()
# The Ng=2 x Nr=2 run must attribute spans to all four ranks.
foreach(pid 0 1 2 3)
  if(NOT trace MATCHES "\"pid\":${pid}[,}]")
    message(FATAL_ERROR "${TRACE}: no spans attributed to rank ${pid}")
  endif()
endforeach()

file(READ ${METRICS} metrics)
if(NOT metrics MATCHES "^name,kind,value\n")
  message(FATAL_ERROR "${METRICS}: missing CSV header")
endif()
foreach(metric minimpi.reduce_sum.calls sim.h2d.bytes fft.transforms filter.rows_filtered)
  if(NOT metrics MATCHES "${metric},")
    message(FATAL_ERROR "${METRICS}: missing ${metric}")
  endif()
endforeach()

file(READ ${REPORT} report)
if(NOT report MATCHES "\"schema\": \"xct.report.v1\"")
  message(FATAL_ERROR "${REPORT}: missing report schema marker")
endif()
# Every pipeline stage appears as a measured-vs-predicted join.
foreach(stage load filter h2d bp reduce store)
  if(NOT report MATCHES "{\"stage\": \"${stage}\", \"measured_s\": ")
    message(FATAL_ERROR "${REPORT}: missing stage row for ${stage}")
  endif()
endforeach()
foreach(key predicted_s binding_stage straggler_k)
  if(NOT report MATCHES "\"${key}\"")
    message(FATAL_ERROR "${REPORT}: missing ${key}")
  endif()
endforeach()
# All four ranks report efficiency, and the fleet percentiles are present.
foreach(rank 0 1 2 3)
  if(NOT report MATCHES "{\"rank\": ${rank}, ")
    message(FATAL_ERROR "${REPORT}: missing rank ${rank} row")
  endif()
endforeach()
if(NOT report MATCHES "\"p99_s\"")
  message(FATAL_ERROR "${REPORT}: missing fleet percentiles")
endif()

file(READ ${FLIGHT} flight)
foreach(cat pipeline sim)
  if(NOT flight MATCHES "\"cat\":\"${cat}\"")
    message(FATAL_ERROR "${FLIGHT}: missing ${cat} spans in the flight dump")
  endif()
endforeach()
message(STATUS "trace, metrics, report and flight outputs look well-formed")
