# Sanitizer toggle, applied globally so the core library, tests, benches,
# and examples all agree on the runtime:
#   -DDEUTERO_SANITIZE=ON | ADDRESS  -> AddressSanitizer + UBSanitizer
#   -DDEUTERO_SANITIZE=thread        -> ThreadSanitizer (CI's gate for
#                                       group commit, concurrent readers
#                                       and the standby's replay thread)
if(DEUTERO_SANITIZE)
  if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
    string(TOLOWER "${DEUTERO_SANITIZE}" _deutero_san)
    if(_deutero_san STREQUAL "thread" OR _deutero_san STREQUAL "tsan")
      add_compile_options(-fsanitize=thread -fno-omit-frame-pointer)
      add_link_options(-fsanitize=thread)
      message(STATUS "deutero: ThreadSanitizer enabled")
    else()
      add_compile_options(-fsanitize=address,undefined
                          -fno-omit-frame-pointer)
      add_link_options(-fsanitize=address,undefined)
      message(STATUS "deutero: AddressSanitizer + UBSanitizer enabled")
    endif()
  else()
    message(WARNING "DEUTERO_SANITIZE=${DEUTERO_SANITIZE} ignored: "
                    "unsupported compiler ${CMAKE_CXX_COMPILER_ID}")
  endif()
endif()
