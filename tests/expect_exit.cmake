# Runs TOOL on FILE, followed by the optional space-separated arguments
# ARGS, and fails unless it exits with EXPECT.  Two optional checks:
# MATCH is a regular expression its standard error must match, and STDOUT
# a file its standard output must equal byte for byte:
#
#   cmake -DTOOL=validate_trace -DFILE=t.json -DEXPECT=1 -DMATCH=missing
#         -P expect_exit.cmake
#
# ctest's WILL_FAIL accepts any non-zero exit, an abort included; the
# validators promise exactly 1 for a bad file (2 is a usage error).
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" "${FILE}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "${TOOL} exited ${rc}, expected ${EXPECT}")
endif()
if(DEFINED MATCH AND NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "${TOOL} stderr does not match '${MATCH}'")
endif()
if(DEFINED STDOUT)
  file(READ "${STDOUT}" expected)
  if(NOT out STREQUAL expected)
    message(FATAL_ERROR "${TOOL} stdout differs from ${STDOUT}")
  endif()
endif()
