// The untraced binary does not hook operator new.
#include "perfbench/src/common.h"

uint64_t pb::ThreadAllocs() { return 0; }
