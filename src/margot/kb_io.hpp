// Knowledge-base (de)serialization.
//
// mARGOt ships the design-time knowledge as files generated at the end
// of the DSE and loaded by the adaptive binary at start-up; SOCRATES
// does the same so a profile computed once can be reused across runs
// (and inspected by humans).  The format is a small CSV dialect:
//
//   # knobs: config,threads,binding
//   # metrics: exec_time_s,power_w,throughput
//   knob:config,knob:threads,knob:binding,exec_time_s,exec_time_s:sd,...
//   0,1,0,11.86,0.21,55.4,0.4,0.0843,0.0015
//
// Numbers round-trip exactly (printed with max_digits10).
#pragma once

#include <iosfwd>
#include <string>

#include "margot/operating_point.hpp"
#include "support/error.hpp"

namespace socrates::margot {

/// Thrown by load_knowledge / knowledge_from_string on malformed input.
/// A *runtime* error (socrates::Error), not a contract violation: a
/// truncated or hand-edited knowledge file is an expected production
/// hazard, and the message always names the offending line (and cell)
/// so the file can be repaired.
class KnowledgeFormatError : public Error {
 public:
  explicit KnowledgeFormatError(const std::string& what) : Error(what) {}
};

/// Writes the knowledge base to a stream (see format above).
void save_knowledge(const KnowledgeBase& kb, std::ostream& out);

/// Serializes to a string.
std::string knowledge_to_string(const KnowledgeBase& kb);

/// Parses a knowledge base from a stream.  Throws KnowledgeFormatError
/// on malformed input (missing headers, wrong column counts,
/// non-numeric cells, knob cells that are not an int, negative
/// standard deviations, a knob row that repeats an earlier one), naming
/// the offending line and field.
KnowledgeBase load_knowledge(std::istream& in);

/// Parses from a string.
KnowledgeBase knowledge_from_string(const std::string& text);

}  // namespace socrates::margot
