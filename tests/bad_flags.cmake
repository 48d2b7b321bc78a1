# Run serve_trace once per bad flag value below and fail unless each
# run exits non-zero and its output names the offending flag (or, for
# a retired flag or value, the text given after "|"):
#
#   cmake -DSERVE_TRACE=<serve_trace> -P bad_flags.cmake

set(base --backend NeuPIMs+SBI --traffic poisson --dataset ShareGPT
         --requests 8)
set(cases
    "--requests abc"
    "--requests 0"
    "--requests 8x"
    "--kv-scale 0"
    "--hybrid -1"
    "--max-len -1"
    "--rate -5"
    "--rate nan"
    "--chunk 0"
    "--seed -1"
    "--hot-fraction 1.5"
    "--turns 0.5"
    "--swap-gbps 0"
    "--prefill legacy|prefill policy 'legacy'"
    "--hybrid-anchors FILE|usage:")
set(checked 0)
set(failed 0)
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 flag_args)
  separate_arguments(args UNIX_COMMAND "${flag_args}")
  list(LENGTH parts n)
  if(n GREATER 1)
    list(GET parts 1 needle)
  else()
    list(GET args 0 needle)
  endif()
  execute_process(COMMAND "${SERVE_TRACE}" ${base} ${args}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  string(FIND "${out}${err}" "${needle}" pos)
  math(EXPR checked "${checked} + 1")
  if(rc EQUAL 0 OR pos EQUAL -1)
    math(EXPR failed "${failed} + 1")
    message(SEND_ERROR "'${flag_args}': exit ${rc}, "
                       "expected non-zero and '${needle}' in:\n${err}${out}")
  endif()
endforeach()
if(failed GREATER 0)
  message(FATAL_ERROR "${failed} of ${checked} bad flag values accepted")
endif()
message(STATUS "${checked} bad flag values rejected")
