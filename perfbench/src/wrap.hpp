// Link-time interposition of library entry points (GNU ld --wrap).
//
// With -Wl,--wrap=SYM, every call to SYM from another object file lands
// on __wrap_SYM, and __real_SYM names the original. PERFBENCH_WRAP
// declares both under those assembler names, taking the object pointer
// as the first parameter of a member function (the Itanium C++ ABI
// passes `this` and a by-value return exactly as for such a free
// function). The CMake build scans the wraps_*.cpp files for the quoted
// symbols to emit the matching --wrap flags, so each symbol is written
// once. A symbol that stops existing fails the link (__real_ unresolved);
// PERFBENCH_SAME_TYPE catches a changed signature at compile time.
#pragma once

#include <type_traits>

#define PERFBENCH_WRAP(name, sym, ret, ...)               \
  ret real_##name(__VA_ARGS__) __asm__("__real_" sym); \
  ret wrap_##name(__VA_ARGS__) __asm__("__wrap_" sym)

#define PERFBENCH_SAME_TYPE(expr, type) \
  static_assert(std::is_same_v<decltype(expr), type>, #expr " changed signature")
