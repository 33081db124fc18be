// Minimal FASTA/FASTQ reading and writing. The readers accept both
// in-memory strings and files; files are memory-mapped (paper §4.4.2)
// when they are regular files.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "sequence/sequence.hpp"

namespace manymap {

/// A malformed record: its 1-based number in the file and the reason,
/// both also in what() ("FASTQ record 2: ..."; `format` names the file
/// type when it is known).
class SequenceFormatError : public std::runtime_error {
 public:
  SequenceFormatError(u64 record, const std::string& reason, const char* format = "FASTQ");
  u64 record() const { return record_; }

 private:
  u64 record_;
};

/// Parse all records from FASTA text. Multi-line sequences supported.
std::vector<Sequence> parse_fasta(std::string_view text);
/// Parse all records from FASTQ text (4-line records). Throws
/// SequenceFormatError for a header without '@', a separator without
/// '+', a truncated record, or a quality string whose length differs
/// from the sequence's.
std::vector<Sequence> parse_fastq(std::string_view text);

/// Auto-detect FASTA vs FASTQ by leading character ('>' vs '@'). Text
/// that is empty or blank holds no records; any other first character
/// throws SequenceFormatError for record 1.
std::vector<Sequence> parse_sequences(std::string_view text);

/// Read a whole file and parse it. Regular files are mapped and parsed in
/// place (the mapping is gone when this returns); pipes, FIFOs and files
/// that cannot be mapped are read through a buffer. Throws InputFileError
/// if the file does not open, and SequenceFormatError like
/// parse_sequences.
std::vector<Sequence> read_sequence_file(const std::string& path);

/// Serialize to FASTA with the given line width (0 = single line).
std::string to_fasta(const std::vector<Sequence>& seqs, std::size_t width = 60);
/// Serialize to FASTQ ('I' quality if record has none).
std::string to_fastq(const std::vector<Sequence>& seqs);

void write_fasta_file(const std::string& path, const std::vector<Sequence>& seqs,
                      std::size_t width = 60);
void write_fastq_file(const std::string& path, const std::vector<Sequence>& seqs);

}  // namespace manymap
