# Runs the serving demo and compares its "PROBE ..." lines with a golden
# file, byte for byte.
#
#   cmake -DDEMO=<serving_demo> -DGOLDEN=<file> -P diff_probe_lines.cmake
execute_process(COMMAND "${DEMO}" OUTPUT_VARIABLE output RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${DEMO} exited with ${code}")
endif()
string(REGEX MATCHALL "(^|\n)PROBE [^\n]*" lines "${output}")
string(REPLACE ";" "" lines "${lines}")
string(REGEX REPLACE "^\n" "" lines "${lines}")
file(READ "${GOLDEN}" golden)
string(STRIP "${golden}" golden)
if(NOT lines STREQUAL golden)
  message(FATAL_ERROR "PROBE lines differ from ${GOLDEN}:\n${lines}")
endif()
