# Runs CMD (a ;-separated command line) and fails unless it exits with
# status CODE. Used by ctest entries that pin a CLI's rejection behaviour:
#
#   cmake -DCODE=2 "-DCMD=<exe>;--flag;value" -P tests/expect_exit.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${CODE}")
  message(FATAL_ERROR "expected exit status ${CODE}, got '${rc}': ${err}")
endif()
