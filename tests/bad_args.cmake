# Run each example once per bad argument below and fail unless each run
# exits non-zero and its output names the offending argument:
#
#   cmake -DQUICKSTART=<quickstart> -DPIM_GEMV=<pim_gemv_microbench>
#         -DEXPLORER=<parallelism_explorer> -DSERVING_SIM=<serving_sim>
#         -P bad_args.cmake
#
# Each case is "<binary variable>|<arguments>|<expected text>".

set(cases
    "QUICKSTART|0|batch"
    "QUICKSTART|abc|batch"
    "QUICKSTART|64x|batch"
    "QUICKSTART|64 sharegpt|unknown dataset 'sharegpt'"
    "PIM_GEMV|-4|seq_len"
    "PIM_GEMV|abc|seq_len"
    "PIM_GEMV|100000|seq_len"
    "EXPLORER|GPT3-13B abc|requests"
    "EXPLORER|GPT3-13B 0|requests"
    "EXPLORER|GPT3-99B|unknown model"
    "SERVING_SIM|0|iterations"
    "SERVING_SIM|40 -1|arrival_per_iter")
set(checked 0)
set(failed 0)
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 binary)
  list(GET parts 1 arg_text)
  list(GET parts 2 needle)
  separate_arguments(args UNIX_COMMAND "${arg_text}")
  execute_process(COMMAND "${${binary}}" ${args}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  string(FIND "${out}${err}" "${needle}" pos)
  math(EXPR checked "${checked} + 1")
  if(rc EQUAL 0 OR pos EQUAL -1)
    math(EXPR failed "${failed} + 1")
    message(SEND_ERROR "${binary} '${arg_text}': exit ${rc}, "
                       "expected non-zero and '${needle}' in:\n${err}${out}")
  endif()
endforeach()
if(failed GREATER 0)
  message(FATAL_ERROR "${failed} of ${checked} bad arguments accepted")
endif()
message(STATUS "${checked} bad arguments rejected")
