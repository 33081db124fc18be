#include "sequence/fasta.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cstring>
#include <fstream>

#include "io/mapped_file.hpp"

namespace manymap {

namespace {

std::string_view strip_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

std::string first_token(std::string_view s) {
  std::size_t i = 0;
  while (i < s.size() && s[i] != ' ' && s[i] != '\t') ++i;
  return std::string(s.substr(0, i));
}

/// Line cursor over a text: each next() is one memchr for the newline.
/// Like a getline loop, text ending in '\n' yields one last empty line.
struct Lines {
  std::string_view text;
  std::size_t pos = 0;

  bool next(std::string_view& line) {
    if (pos > text.size()) return false;
    std::size_t end = text.size();
    if (pos < end)
      if (const void* nl = std::memchr(text.data() + pos, '\n', end - pos))
        end = static_cast<const char*>(nl) - text.data();
    line = strip_cr(text.substr(pos, end - pos));
    pos = end + 1;
    return true;
  }
};

}  // namespace

SequenceFormatError::SequenceFormatError(u64 record, const std::string& reason,
                                         const char* format)
    : std::runtime_error(std::string(format) + " record " + std::to_string(record) + ": " +
                         reason),
      record_(record) {}

std::vector<Sequence> parse_fasta(std::string_view text) {
  std::vector<Sequence> out;
  Lines lines{text};
  std::string_view line;
  bool header = false;  // `line` holds a header still to be parsed
  while (!header && lines.next(line)) header = !line.empty() && line[0] == '>';
  while (header) {
    Sequence s;
    s.name = first_token(line.substr(1));
    // The record runs to the next line that starts with '>': its bytes
    // bound its bases, so the codes are sized once and trimmed at the end.
    const std::size_t body = std::min(lines.pos, text.size());
    std::size_t body_end = body;
    while (body_end < text.size()) {
      const void* gt = std::memchr(text.data() + body_end, '>', text.size() - body_end);
      if (gt == nullptr) {
        body_end = text.size();
      } else {
        body_end = static_cast<const char*>(gt) - text.data();
        if (text[body_end - 1] == '\n') break;  // body >= 1 follows the header's newline
        ++body_end;
      }
    }
    s.codes.resize(body_end - body);
    std::size_t n = 0;
    header = false;
    while (!header && lines.next(line)) {
      if (line.empty()) continue;
      header = line[0] == '>';
      if (!header) {
        encode_bases(line.data(), line.size(), s.codes.data() + n);
        n += line.size();
      }
    }
    s.codes.resize(n);
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Sequence> parse_fastq(std::string_view text) {
  std::vector<Sequence> out;
  Lines lines{text};
  std::string_view header, seq, plus, qual;
  u64 record = 0;
  while (lines.next(header)) {
    if (header.empty()) continue;
    ++record;
    if (header[0] != '@')
      throw SequenceFormatError(record, "header line does not start with '@'");
    if (!(lines.next(seq) && lines.next(plus) && lines.next(qual)))
      throw SequenceFormatError(record, "truncated record");
    if (plus.empty() || plus[0] != '+')
      throw SequenceFormatError(record, "separator line does not start with '+'");
    if (qual.size() != seq.size())
      throw SequenceFormatError(record, "quality length " + std::to_string(qual.size()) +
                                            " differs from sequence length " +
                                            std::to_string(seq.size()));
    Sequence s;
    s.name = first_token(header.substr(1));
    s.codes.resize(seq.size());
    encode_bases(seq.data(), seq.size(), s.codes.data());
    s.qual = std::string(qual);
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Sequence> parse_sequences(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size() && (text[i] == '\n' || text[i] == '\r' || text[i] == ' ')) ++i;
  if (i >= text.size()) return {};
  if (text[i] == '@') return parse_fastq(text.substr(i));
  if (text[i] == '>') return parse_fasta(text.substr(i));
  throw SequenceFormatError(1, "starts with neither '>' (FASTA) nor '@' (FASTQ)",
                            "FASTA/FASTQ");
}

std::vector<Sequence> read_sequence_file(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    MappedFile f;
    if (f.open(path)) return parse_sequences(f.view());
  }
  return parse_sequences(read_file(path));
}

std::string to_fasta(const std::vector<Sequence>& seqs, std::size_t width) {
  std::string out;
  for (const auto& s : seqs) {
    out.push_back('>');
    out.append(s.name);
    out.push_back('\n');
    const std::string ascii = s.to_ascii();
    if (width == 0) {
      out.append(ascii);
      out.push_back('\n');
    } else {
      for (std::size_t i = 0; i < ascii.size(); i += width) {
        out.append(ascii.substr(i, width));
        out.push_back('\n');
      }
      if (ascii.empty()) out.push_back('\n');
    }
  }
  return out;
}

std::string to_fastq(const std::vector<Sequence>& seqs) {
  std::string out;
  for (const auto& s : seqs) {
    const std::string ascii = s.to_ascii();
    out.push_back('@');
    out.append(s.name);
    out.push_back('\n');
    out.append(ascii);
    out.append("\n+\n");
    out.append(s.qual.size() == ascii.size() ? s.qual : std::string(ascii.size(), 'I'));
    out.push_back('\n');
  }
  return out;
}

void write_fasta_file(const std::string& path, const std::vector<Sequence>& seqs,
                      std::size_t width) {
  std::ofstream out(path, std::ios::binary);
  MM_REQUIRE(out.good(), "cannot open FASTA output file");
  out << to_fasta(seqs, width);
}

void write_fastq_file(const std::string& path, const std::vector<Sequence>& seqs) {
  std::ofstream out(path, std::ios::binary);
  MM_REQUIRE(out.good(), "cannot open FASTQ output file");
  out << to_fastq(seqs);
}

}  // namespace manymap
