# Tool-level checks of infilter-detect, run as `cmake -P` scripts (no
# Python needed):
#
#   cmake -DDETECT=<infilter-detect> -DMIXED=<capture> -DTRAIN=<capture>
#         -DWORK=<dir> -DCHECK=threads -P detect_equivalence.cmake
#     Replays MIXED at --threads 1, at --threads 4 and through loopback
#     ingest at --threads 2 --ingest-threads 1. All three must print the
#     same "flows analyzed" line and a byte-identical IDMEF stream. Then
#     the same for --mode basic at --threads 1 and --threads 4.
#
#   ... -DCHECK=dump_eia -P detect_equivalence.cmake
#     --dump-eia then --eia: the dumped EIA sets load back, and a run
#     preloaded from them dumps the same sets again. --dump-eia with more
#     than one shard is refused with a message naming --threads 1.

cmake_minimum_required(VERSION 3.16)
foreach(var DETECT MIXED TRAIN WORK CHECK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "detect_equivalence: -D${var}=... is required")
  endif()
endforeach()
file(MAKE_DIRECTORY ${WORK})

# Runs infilter-detect on MIXED with the common flags plus ARGN; the
# output lands in ${out_var}, and a non-zero exit fails the script.
function(run_detect out_var)
  execute_process(
    COMMAND ${DETECT} ${MIXED} --train ${TRAIN} --bits 48 ${ARGN}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE output
    ERROR_VARIABLE errors)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "infilter-detect ${ARGN} exited ${status}:\n${errors}${output}")
  endif()
  set(${out_var} "${output}" PARENT_SCOPE)
endfunction()

# The "N flows analyzed: ..." line of a run's output.
function(analyzed_line out_var output)
  string(REGEX MATCH "[0-9]+ flows analyzed:[^\n]*" line "${output}")
  if(line STREQUAL "")
    message(FATAL_ERROR "no 'flows analyzed' line in:\n${output}")
  endif()
  set(${out_var} "${line}" PARENT_SCOPE)
endfunction()

# Everything from the first IDMEF document on: --idmef prints the alert
# stream last.
function(idmef_stream out_var output)
  string(FIND "${output}" "<IDMEF-Message" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no IDMEF alerts in:\n${output}")
  endif()
  string(SUBSTRING "${output}" ${at} -1 stream)
  set(${out_var} "${stream}" PARENT_SCOPE)
endfunction()

if(CHECK STREQUAL "threads")
  run_detect(reference --idmef --threads 1)
  analyzed_line(reference_line "${reference}")
  idmef_stream(reference_stream "${reference}")
  foreach(flags "--threads 4" "--threads 2 --ingest-threads 1")
    separate_arguments(flag_list UNIX_COMMAND "${flags}")
    run_detect(output --idmef ${flag_list})
    analyzed_line(line "${output}")
    idmef_stream(stream "${output}")
    if(NOT line STREQUAL reference_line)
      message(FATAL_ERROR "${flags}: '${line}' != '${reference_line}' at --threads 1")
    endif()
    if(NOT stream STREQUAL reference_stream)
      file(WRITE ${WORK}/idmef_reference.xml "${reference_stream}")
      file(WRITE ${WORK}/idmef_mismatch.xml "${stream}")
      message(FATAL_ERROR "${flags}: IDMEF stream differs from --threads 1 "
                          "(see ${WORK}/idmef_*.xml)")
    endif()
    message(STATUS "${flags}: ${line}; IDMEF stream identical to --threads 1")
  endforeach()
  # Basic InFilter: the suspect engine still emits every alert, in
  # dispatch order, whatever the shard count.
  run_detect(basic_reference --idmef --mode basic --threads 1)
  analyzed_line(basic_line "${basic_reference}")
  idmef_stream(basic_stream "${basic_reference}")
  run_detect(output --idmef --mode basic --threads 4)
  analyzed_line(line "${output}")
  idmef_stream(stream "${output}")
  if(NOT line STREQUAL basic_line)
    message(FATAL_ERROR "--mode basic --threads 4: '${line}' != '${basic_line}' "
                        "at --threads 1")
  endif()
  if(NOT stream STREQUAL basic_stream)
    file(WRITE ${WORK}/idmef_basic_reference.xml "${basic_stream}")
    file(WRITE ${WORK}/idmef_basic_mismatch.xml "${stream}")
    message(FATAL_ERROR "--mode basic --threads 4: IDMEF stream differs from "
                        "--threads 1 (see ${WORK}/idmef_basic_*.xml)")
  endif()
  message(STATUS "--mode basic --threads 4: ${line}; IDMEF stream identical "
                 "to --threads 1")
elseif(CHECK STREQUAL "dump_eia")
  set(first ${WORK}/eia_dump.txt)
  set(second ${WORK}/eia_dump_reloaded.txt)
  run_detect(output --dump-eia ${first})
  analyzed_line(line "${output}")
  run_detect(reloaded --eia ${first} --dump-eia ${second})
  if(NOT reloaded MATCHES "loaded EIA sets for 10 ingress points")
    message(FATAL_ERROR "--eia did not load the dump:\n${reloaded}")
  endif()
  analyzed_line(reloaded_line "${reloaded}")
  message(STATUS "dumped: ${line}; reloaded: ${reloaded_line}")
  file(READ ${first} first_sets)
  file(READ ${second} second_sets)
  if(NOT first_sets STREQUAL second_sets)
    message(FATAL_ERROR "EIA sets changed over a dump -> load -> dump round trip")
  endif()
  execute_process(
    COMMAND ${DETECT} ${MIXED} --train ${TRAIN} --bits 48 --threads 2
            --dump-eia ${WORK}/eia_refused.txt
    RESULT_VARIABLE status
    OUTPUT_VARIABLE output
    ERROR_VARIABLE errors)
  if(status EQUAL 0 OR NOT errors MATCHES "--threads 1")
    message(FATAL_ERROR "--threads 2 --dump-eia should fail naming --threads 1 "
                        "(exit ${status}):\n${errors}")
  endif()
else()
  message(FATAL_ERROR "detect_equivalence: unknown CHECK '${CHECK}'")
endif()
