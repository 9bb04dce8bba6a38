# Runs CMD (a ;-separated command line) and fails unless it exits with
# status CODE and, when ERR is given, its stderr matches the regex ERR.
# Used by ctest entries that pin a CLI's rejection behaviour:
#
#   cmake -DCODE=2 "-DCMD=<exe>;--flag;value" [-DERR=regex] \
#         -P tests/expect_exit.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${CODE}")
  message(FATAL_ERROR "expected exit status ${CODE}, got '${rc}': ${err}")
endif()
if(DEFINED ERR AND NOT err MATCHES "${ERR}")
  message(FATAL_ERROR "stderr does not match '${ERR}': ${err}")
endif()
