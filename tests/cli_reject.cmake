# Asserts a CLI binary rejects each bad argument list: exit code 2 and a
# usage string in its output, plus MATCH (when given) naming the problem.
# Driven from examples/CMakeLists.txt:
#   cmake -DBIN=<path> "-DCASES=--bogus" -DMATCH=unknown -P cli_reject.cmake
# CASES holds argument lists separated by '|', each with its words joined by
# commas.
if(NOT DEFINED BIN OR NOT DEFINED CASES)
  message(FATAL_ERROR "cli_reject.cmake needs -DBIN=<binary> -DCASES=<cases>")
endif()

string(REPLACE "|" ";" cases "${CASES}")
foreach(case IN LISTS cases)
  string(REPLACE "," ";" args "${case}")
  execute_process(
    COMMAND ${BIN} ${args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
  )
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${BIN} ${case}: expected exit code 2, got ${rc}:\n${out}${err}")
  endif()
  string(TOLOWER "${out}${err}" all)
  if(NOT all MATCHES "usage")
    message(FATAL_ERROR "${BIN} ${case}: no usage text in output:\n${out}${err}")
  endif()
  if(DEFINED MATCH AND NOT all MATCHES "${MATCH}")
    message(FATAL_ERROR "${BIN} ${case}: error does not say '${MATCH}':\n${out}${err}")
  endif()
endforeach()
