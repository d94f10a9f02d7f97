# Runs a bench that must fail through Session::Fail() (exit 1) next to a
# sentinel copy of its default --json file, and checks the run left it untouched.
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
if(NOT code EQUAL 1)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited ${code}; expected 1 from Session::Fail()")
endif()
file(READ "${DIR}/${JSON}" after)
if(NOT after STREQUAL sentinel)
  message(FATAL_ERROR "failed run of ${BENCH} rewrote ${JSON}:\n${after}")
endif()
