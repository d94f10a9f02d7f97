# Runs a bench that must fail in a directory holding a sentinel copy of its
# default --json file, and checks the failed run left that file untouched.
#
#   cmake -DBENCH=<binary> -DARGS=<flag;...> -DJSON=<file name> -DDIR=<dir>
#         -P failed_run_keeps_json.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
set(sentinel "{\"sentinel\": \"baseline rows\"}\n")
file(WRITE "${DIR}/${JSON}" "${sentinel}")
execute_process(COMMAND "${BENCH}" ${ARGS}
  WORKING_DIRECTORY "${DIR}" RESULT_VARIABLE code
  OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited 0; expected a failure")
endif()
file(READ "${DIR}/${JSON}" after)
if(NOT after STREQUAL sentinel)
  message(FATAL_ERROR "failed run of ${BENCH} rewrote ${JSON}:\n${after}")
endif()
