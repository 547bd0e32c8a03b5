// The verify workload: the verify_zone options (use_summaries, parallel
// explore, default solver config) on three cases, timed from outside
// RunVerifyPipeline, with the split inside taken from the report.
//   (a) golden x kitchen-sink                     -> VERIFIED
//   (b) v2.0 x bug-hunt                           -> 4 confirmed issues
//   (c) a fresh store warmed by golden x kitchen-sink, then golden x the
//       edited kitchen-sink (and the unchanged zone again, replayed)
#ifndef PERFBENCH_SRC_VERIFY_H_
#define PERFBENCH_SRC_VERIFY_H_

#include <cstdint>
#include <string>

#include "perfbench/src/common.h"

namespace pb {

struct VerifyArgs {
  double seconds = 10;
  int min_rounds = 3;  // each case runs at least this often, so it has a median
  std::string zone;     // kitchen-sink
  std::string edited;   // kitchen-sink with one record changed
  std::string bughunt;  // bug-hunt
  std::string store_root;  // fresh artifact stores are made under here
  bool trace = false;
  std::string spans;
};

bool RunVerify(const VerifyArgs& args, Record* record);

}  // namespace pb

#endif  // PERFBENCH_SRC_VERIFY_H_
