# Run serve_trace once per row of checksums.tsv and fail unless each
# run prints its pinned checksum:
#
#   cmake -DSERVE_TRACE=<serve_trace> -DTABLE=<checksums.tsv>
#         -P checksums.cmake

file(STRINGS "${TABLE}" rows)
set(checked 0)
set(failed 0)
foreach(row IN LISTS rows)
  if(row STREQUAL "" OR row MATCHES "^#")
    continue()
  endif()
  if(NOT row MATCHES "^([^\t]+)\t([0-9a-f]+)\t(.+)$")
    message(FATAL_ERROR "malformed checksums row: ${row}")
  endif()
  set(name "${CMAKE_MATCH_1}")
  set(expected "${CMAKE_MATCH_2}")
  separate_arguments(args UNIX_COMMAND "${CMAKE_MATCH_3}")
  execute_process(COMMAND "${SERVE_TRACE}" ${args}
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  string(FIND "${out}" "${expected}" pos)
  math(EXPR checked "${checked} + 1")
  if(NOT rc EQUAL 0 OR pos EQUAL -1)
    math(EXPR failed "${failed} + 1")
    message(SEND_ERROR "${name}: checksum ${expected} drifted (exit ${rc})")
  endif()
endforeach()
if(failed GREATER 0)
  message(FATAL_ERROR "${failed} of ${checked} pinned checksums drifted")
endif()
message(STATUS "${checked} pinned checksums match")
