# Sanitizer toggles, applied globally so the library, tests, benches and
# examples all agree on instrumentation (mixing instrumented and plain TUs
# produces false negatives).
#
# Usage: cmake -DOCA_SANITIZE=address   (or: undefined, thread)

set(OCA_SANITIZE "" CACHE STRING "Sanitizer to enable: address | undefined | thread | (empty)")
set_property(CACHE OCA_SANITIZE PROPERTY STRINGS "" address undefined thread)

if(OCA_SANITIZE STREQUAL "address")
  add_compile_options(-fsanitize=address -fno-omit-frame-pointer)
  add_link_options(-fsanitize=address)
elseif(OCA_SANITIZE STREQUAL "undefined")
  # -fno-sanitize-recover makes detected UB abort the test instead of
  # printing and continuing, so CI actually fails on UB.
  add_compile_options(-fsanitize=undefined -fno-sanitize-recover=all
                      -fno-omit-frame-pointer)
  add_link_options(-fsanitize=undefined -fno-sanitize-recover=all)
elseif(OCA_SANITIZE STREQUAL "thread")
  add_compile_options(-fsanitize=thread -fno-omit-frame-pointer)
  add_link_options(-fsanitize=thread)
elseif(NOT OCA_SANITIZE STREQUAL "")
  message(FATAL_ERROR "Unknown OCA_SANITIZE value '${OCA_SANITIZE}' (use address, undefined or thread)")
endif()
