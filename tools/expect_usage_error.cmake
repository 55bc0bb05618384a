# Runs TOOL with ARGS (a '|'-separated list) and passes only if the tool
# exits 2 with its usage text and a message matching EXPECT on stderr:
# malformed input must be a usage error, never an abort and never a value
# silently accepted.
#
#   cmake -DTOOL=path/to/dmx_trace -DARGS="--n|abc" \
#         -DEXPECT="for --n" -P expect_usage_error.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit code 2, got '${rc}'\n${out}${err}")
endif()
if(NOT err MATCHES "usage: " OR NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "expected usage text and '${EXPECT}' on stderr:\n${err}")
endif()
