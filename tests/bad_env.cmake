# Run fig_serving_latency once per bad bench environment value below
# and fail unless each run exits non-zero and names the variable:
#
#   cmake -DBENCH=<fig_serving_latency> -P bad_env.cmake
#
# A bad value must stop the bench before any run starts; the other
# variable stays valid, so a value that slipped through would start
# the (minutes-long) sweep and trip the test's timeout.

set(cases
    "NEUPIMS_BENCH_SEED=abc"
    "NEUPIMS_BENCH_SEED=-1"
    "NEUPIMS_BENCH_SEED=12x"
    "NEUPIMS_BENCH_SEED=18446744073709551616"
    "NEUPIMS_BENCH_FAST=2"
    "NEUPIMS_BENCH_FAST=yes"
    "NEUPIMS_BENCH_FAST=1x")
set(checked 0)
set(failed 0)
foreach(case IN LISTS cases)
  string(REGEX MATCH "^[A-Z_]+" var "${case}")
  if(var STREQUAL "NEUPIMS_BENCH_SEED")
    set(other NEUPIMS_BENCH_FAST=1)
  else()
    set(other NEUPIMS_BENCH_SEED=42)
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E env "${other}" "${case}"
                          "${BENCH}"
                  OUTPUT_VARIABLE out ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  string(FIND "${out}${err}" "${var}" pos)
  math(EXPR checked "${checked} + 1")
  if(rc EQUAL 0 OR pos EQUAL -1)
    math(EXPR failed "${failed} + 1")
    message(SEND_ERROR "'${case}': exit ${rc}, "
                       "expected non-zero and '${var}' in:\n${err}${out}")
  endif()
endforeach()
if(failed GREATER 0)
  message(FATAL_ERROR "${failed} of ${checked} bad environment values accepted")
endif()
message(STATUS "${checked} bad environment values rejected")
