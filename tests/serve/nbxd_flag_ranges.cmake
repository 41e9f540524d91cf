# Out-of-range numeric flags must stop nbxd before it binds: exit 2 and
# a diagnostic naming the flag, never a wrapped unsigned value.
#
#   cmake -DNBXD=path/to/nbxd -DSOCKET=path/to/unused.sock \
#         -P nbxd_flag_ranges.cmake
foreach(case "--workers;-1" "--workers;0" "--workers;1025" "--queue;-5"
             "--retry-ms;4294967296")
  list(GET case 0 flag)
  execute_process(COMMAND ${NBXD} --socket ${SOCKET} --quiet ${case}
    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET TIMEOUT 10)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "nbxd ${case}: exit '${rc}', want 2\n${err}")
  endif()
  if(NOT err MATCHES "${flag} must be in")
    message(FATAL_ERROR "nbxd ${case}: diagnostic does not name ${flag}\n${err}")
  endif()
endforeach()
