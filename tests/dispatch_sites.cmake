# Counts the computed-goto dispatch sites of SuperblockCache::run_trace: the
# indirect jumps GCC emits in it, one per threaded handler when direct
# threading survives optimization (DESIGN §12). Fails below MIN_SITES.
#
#   cmake -DOBJDUMP=objdump -DLIBRARY=libdynacut_vm.a -DMIN_SITES=16 \
#         -P dispatch_sites.cmake
execute_process(COMMAND ${OBJDUMP} -d --no-show-raw-insn ${LIBRARY}
                OUTPUT_VARIABLE asm RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "objdump failed on ${LIBRARY}")
endif()
# objdump ends each function's listing with a blank line.
string(REGEX MATCH "<[^>\n]*SuperblockCache9run_trace[^>\n]*>:(\n[^\n]+)*"
       body "${asm}")
if(body STREQUAL "")
  message(FATAL_ERROR "SuperblockCache::run_trace not found in ${LIBRARY}")
endif()
string(REGEX MATCHALL "\tjmp[ \t]+\\*" sites "${body}")
list(LENGTH sites count)
message(STATUS "run_trace dispatch sites: ${count} (minimum ${MIN_SITES})")
if(count LESS MIN_SITES)
  message(FATAL_ERROR "run_trace has ${count} indirect-jump dispatch sites, "
                      "fewer than ${MIN_SITES}: direct threading collapsed")
endif()
