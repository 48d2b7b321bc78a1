# Run programs once per bad input below and fail unless each run exits
# non-zero and its output names the bad input. Only the cases of the
# programs passed in run:
#
#   cmake -DQUICKSTART=<quickstart> -DPIM_GEMV=<pim_gemv_microbench>
#         -DEXPLORER=<parallelism_explorer> -DSERVING_SIM=<serving_sim>
#         -DSERVE_TRACE=<serve_trace> -DBENCH=<fig_serving_latency>
#         -P bad_inputs.cmake
#
# Each case is "<program variable>|<environment>|<arguments>|<expected
# text>". A bad bench environment value must stop the bench before any
# run starts; the other variable stays valid, so a value that slipped
# through would start the (minutes-long) sweep and trip the test's
# timeout.

set(st "--backend NeuPIMs+SBI --traffic poisson --dataset ShareGPT --requests 8")
set(fast NEUPIMS_BENCH_FAST=1)
set(seed NEUPIMS_BENCH_SEED=42)
set(cases
    "QUICKSTART||0|batch"
    "QUICKSTART||abc|batch"
    "QUICKSTART||64x|batch"
    "QUICKSTART||64 sharegpt|unknown dataset 'sharegpt'"
    "PIM_GEMV||-4|seq_len"
    "PIM_GEMV||abc|seq_len"
    "PIM_GEMV||100000|seq_len"
    "EXPLORER||GPT3-13B abc|requests"
    "EXPLORER||GPT3-13B 0|requests"
    "EXPLORER||GPT3-99B|unknown model"
    "SERVING_SIM||0|iterations"
    "SERVING_SIM||40 -1|arrival_per_iter"
    "SERVE_TRACE||${st} --requests abc|--requests"
    "SERVE_TRACE||${st} --requests 0|--requests"
    "SERVE_TRACE||${st} --requests 8x|--requests"
    "SERVE_TRACE||${st} --kv-scale 0|--kv-scale"
    "SERVE_TRACE||${st} --hybrid -1|--hybrid"
    "SERVE_TRACE||${st} --max-len -1|--max-len"
    "SERVE_TRACE||${st} --rate -5|--rate"
    "SERVE_TRACE||${st} --rate nan|--rate"
    "SERVE_TRACE||${st} --chunk 0|--chunk"
    "SERVE_TRACE||${st} --seed -1|--seed"
    "SERVE_TRACE||${st} --hot-fraction 1.5|--hot-fraction"
    "SERVE_TRACE||${st} --turns 0.5|--turns"
    "SERVE_TRACE||${st} --swap-gbps 0|--swap-gbps"
    "SERVE_TRACE||${st} --prefill legacy|prefill policy 'legacy'"
    "SERVE_TRACE||${st} --policy lottery|unknown scheduling policy 'lottery'"
    "SERVE_TRACE||${st} --victim random|unknown victim policy 'random'"
    "SERVE_TRACE||${st} --preempt sometimes|unknown preemption mode 'sometimes'"
    "SERVE_TRACE||${st} --classes four-tier|unknown class mix 'four-tier'"
    "SERVE_TRACE||${st} --mem-sched fifo|unknown memory scheduler 'fifo'"
    "SERVE_TRACE||${st} --mem-sched pim-frfcfs|unknown memory scheduler 'pim-frfcfs'"
    "SERVE_TRACE||${st} --traffic diurnal|unknown traffic model 'diurnal'"
    "SERVE_TRACE||${st} --dataset wiki|unknown dataset 'wiki'"
    "SERVE_TRACE||${st} --hybrid-anchors FILE|usage:"
    "BENCH|${fast} NEUPIMS_BENCH_SEED=abc||NEUPIMS_BENCH_SEED"
    "BENCH|${fast} NEUPIMS_BENCH_SEED=-1||NEUPIMS_BENCH_SEED"
    "BENCH|${fast} NEUPIMS_BENCH_SEED=12x||NEUPIMS_BENCH_SEED"
    "BENCH|${fast} NEUPIMS_BENCH_SEED=18446744073709551616||NEUPIMS_BENCH_SEED"
    "BENCH|${seed} NEUPIMS_BENCH_FAST=2||NEUPIMS_BENCH_FAST"
    "BENCH|${seed} NEUPIMS_BENCH_FAST=yes||NEUPIMS_BENCH_FAST"
    "BENCH|${seed} NEUPIMS_BENCH_FAST=1x||NEUPIMS_BENCH_FAST")
set(checked 0)
set(failed 0)
foreach(case IN LISTS cases)
  string(REGEX MATCH "^([^|]*)[|]([^|]*)[|]([^|]*)[|](.*)$" _ "${case}")
  set(program "${CMAKE_MATCH_1}")
  set(env_text "${CMAKE_MATCH_2}")
  set(arg_text "${CMAKE_MATCH_3}")
  set(needle "${CMAKE_MATCH_4}")
  if(NOT DEFINED ${program})
    continue()
  endif()
  separate_arguments(env UNIX_COMMAND "${env_text}")
  separate_arguments(args UNIX_COMMAND "${arg_text}")
  execute_process(COMMAND "${CMAKE_COMMAND}" -E env ${env}
                          "${${program}}" ${args}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  string(FIND "${out}${err}" "${needle}" pos)
  math(EXPR checked "${checked} + 1")
  if(rc EQUAL 0 OR pos EQUAL -1)
    math(EXPR failed "${failed} + 1")
    message(SEND_ERROR "${program} '${env_text} ${arg_text}': exit ${rc}, "
                       "expected non-zero and '${needle}' in:\n${err}${out}")
  endif()
endforeach()
if(checked EQUAL 0)
  message(FATAL_ERROR "no program given")
endif()
if(failed GREATER 0)
  message(FATAL_ERROR "${failed} of ${checked} bad inputs accepted")
endif()
message(STATUS "${checked} bad inputs rejected")
