# Helper for registering a GoogleTest suite binary with ctest.
#
#   deutero_add_test(<suite>)            # builds tests/<suite>.cc
#
# Every suite is labeled `tier1` (the acceptance gate: `ctest -L tier1`) and
# runs in its own process, so `ctest -j` parallelism is safe.
function(deutero_add_test suite)
  add_executable(${suite} ${suite}.cc)
  target_link_libraries(${suite} PRIVATE
    deutero_core GTest::gtest GTest::gtest_main)
  target_include_directories(${suite} PRIVATE ${CMAKE_CURRENT_SOURCE_DIR})
  deutero_set_warnings(${suite})
  add_test(NAME ${suite} COMMAND ${suite})
  set_tests_properties(${suite} PROPERTIES LABELS "tier1" TIMEOUT 300)
endfunction()
