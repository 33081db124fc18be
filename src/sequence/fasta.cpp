#include "sequence/fasta.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <memory>

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

}  // namespace

std::vector<Sequence> parse_fasta(std::string_view text) {
  std::vector<Sequence> out;
  std::string current_ascii;
  std::string current_name;
  bool in_record = false;
  auto flush = [&] {
    if (in_record) out.push_back(Sequence::from_ascii(current_name, current_ascii));
    current_ascii.clear();
  };
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line =
        strip_cr(text.substr(pos, (nl == std::string_view::npos ? text.size() : nl) - pos));
    if (!line.empty()) {
      if (line[0] == '>') {
        flush();
        in_record = true;
        current_name = first_token(line.substr(1));
      } else if (in_record) {
        current_ascii.append(line);
      }
    }
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  flush();
  return out;
}

std::vector<Sequence> parse_fastq(std::string_view text) {
  std::vector<Sequence> out;
  std::size_t pos = 0;
  auto next_line = [&](std::string_view& line) -> bool {
    if (pos > text.size()) return false;
    const std::size_t nl = text.find('\n', pos);
    line = strip_cr(text.substr(pos, (nl == std::string_view::npos ? text.size() : nl) - pos));
    pos = (nl == std::string_view::npos) ? text.size() + 1 : nl + 1;
    return true;
  };
  std::string_view header, seq, plus, qual;
  while (next_line(header)) {
    if (header.empty()) continue;
    MM_REQUIRE(header[0] == '@', "FASTQ record must start with '@'");
    const bool ok = next_line(seq) && next_line(plus) && next_line(qual);
    MM_REQUIRE(ok, "truncated FASTQ record");
    MM_REQUIRE(!plus.empty() && plus[0] == '+', "FASTQ separator line must start with '+'");
    Sequence s = Sequence::from_ascii(first_token(header.substr(1)), seq);
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
  return parse_fasta(text.substr(i));
}

std::vector<Sequence> read_sequence_file(const std::string& path) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "rb"),
                                                          &std::fclose);
  MM_REQUIRE(f != nullptr, "cannot open sequence file");
  // One read into a string sized from the file, then drain anything past
  // that size (a pipe reports 0 bytes, a file may still be growing).
  std::string text;
  struct stat st {};
  if (::fstat(::fileno(f.get()), &st) == 0 && st.st_size > 0)
    text.resize(static_cast<std::size_t>(st.st_size));
  text.resize(std::fread(text.data(), 1, text.size(), f.get()));
  char chunk[1 << 16];
  for (std::size_t got; (got = std::fread(chunk, 1, sizeof chunk, f.get())) > 0;)
    text.append(chunk, got);
  MM_REQUIRE(!std::ferror(f.get()), "cannot read sequence file");
  return parse_sequences(text);
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
