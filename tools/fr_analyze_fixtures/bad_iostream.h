// EXPECT: no-iostream-in-lib
// Library code prints nothing (tools/ and bench/ print via <cstdio>);
// <iostream> drags in static-init ordering and unsynchronized stream
// state.
#pragma once

#include <iostream>

inline void report(int n) { std::cout << n << "\n"; }
