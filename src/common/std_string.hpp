// std_string.hpp — <string> without GCC 12's false-positive -Wrestrict.
//
// At -O3, GCC 12 warns that the memcpy inside `"literal" + std::string&&`
// may overlap (GCC bug 105329, fixed in GCC 13). The warning is reported
// at libstdc++'s char_traits.h, so it is silenced where that header is
// first parsed: a translation unit that builds strings this way includes
// this header before any standard header that pulls in char_traits.h
// (<string>, <ios>, <memory>, <ostream>, ...). Release builds use -Werror.
#pragma once

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#include <string>
#pragma GCC diagnostic pop
#else
#include <string>
#endif
