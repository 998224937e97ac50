#ifndef SEEP_WORKLOADS_STATE_ENTRY_H_
#define SEEP_WORKLOADS_STATE_ENTRY_H_

#include <string>

#include "serde/encoder.h"

namespace seep::workloads {

/// The bytes of the scratch encoder a capture encodes each entry through
/// (core::Operator::GetProcessingState), as that entry's value: one
/// allocation and one memcpy.
inline std::string StateEntryValue(const serde::Encoder& enc) {
  return std::string(reinterpret_cast<const char*>(enc.buffer().data()),
                     enc.size());
}

}  // namespace seep::workloads

#endif  // SEEP_WORKLOADS_STATE_ENTRY_H_
