# Checks that every tool and bench declares exactly the options it reads,
# run as a `cmake -P` script:
#
#   cmake -DSOURCE_DIR=<repo root> -P args_options.cmake
#
# util::Args::parse rejects any "--name" missing from the lists a caller
# passes it, and each caller reads its options by name elsewhere in the
# file. The two must agree: a name that is read but not listed can never
# be given (parse refuses it), and a name that is listed but never read is
# accepted and then silently ignored. For each tools/*.cpp and bench/*.cpp
# that calls Args::parse, the quoted names inside the parse call must equal
# the quoted names passed to args.has/value/value_or/int_or/checked_int/
# double_or in the same file.

cmake_minimum_required(VERSION 3.16)
if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "args_options: -DSOURCE_DIR=... is required")
endif()

file(GLOB sources ${SOURCE_DIR}/tools/*.cpp ${SOURCE_DIR}/bench/*.cpp)
set(checked 0)
set(failures "")
foreach(source ${sources})
  file(READ ${source} text)
  string(FIND "${text}" "Args::parse(" at)
  if(at EQUAL -1)
    continue()
  endif()
  string(SUBSTRING "${text}" ${at} -1 call)
  string(FIND "${call}" ");" end)
  string(SUBSTRING "${call}" 0 ${end} call)
  string(REGEX MATCHALL "\"[^\"]+\"" declared "${call}")
  list(REMOVE_DUPLICATES declared)

  string(REGEX MATCHALL
         "args\\.(has|value|value_or|int_or|checked_int|double_or)\\(\"[^\"]+\""
         reads "${text}")
  set(read "")
  foreach(site ${reads})
    string(REGEX MATCH "\"[^\"]+\"$" name "${site}")
    list(APPEND read ${name})
  endforeach()
  list(REMOVE_DUPLICATES read)

  get_filename_component(file ${source} NAME)
  foreach(name ${read})
    if(NOT name IN_LIST declared)
      string(APPEND failures "\n  ${file}: reads ${name} but Args::parse does not list it")
    endif()
  endforeach()
  foreach(name ${declared})
    if(NOT name IN_LIST read)
      string(APPEND failures "\n  ${file}: Args::parse lists ${name} but nothing reads it")
    endif()
  endforeach()
  math(EXPR checked "${checked} + 1")
endforeach()

if(NOT failures STREQUAL "")
  message(FATAL_ERROR "args_options: option lists and reads disagree:${failures}")
endif()
if(checked LESS 11)
  message(FATAL_ERROR "args_options: found ${checked} Args::parse callers, expected at least 11")
endif()
message(STATUS "args_options: ${checked} tools and benches declare exactly what they read")
