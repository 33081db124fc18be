#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "base/random.hpp"

#include "io/mapped_file.hpp"
#include "sequence/dna.hpp"
#include "sequence/fasta.hpp"
#include "sequence/sequence.hpp"

namespace manymap {
namespace {

TEST(Dna, EncodeDecodeRoundTrip) {
  const std::string s = "ACGTNacgtn";
  const auto codes = encode_dna(s);
  ASSERT_EQ(codes.size(), 10u);
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[1], 1);
  EXPECT_EQ(codes[2], 2);
  EXPECT_EQ(codes[3], 3);
  EXPECT_EQ(codes[4], kBaseN);
  EXPECT_EQ(decode_dna(codes), "ACGTNACGTN");
}

TEST(Dna, BlockDecoderMatchesTheTableForEveryByte) {
  // Every byte value at every position of a 64-byte block and of the
  // scalar tail, at lengths 0..130 and misaligned starts; bytes past n
  // stay untouched.
  std::string text(512, '\0');
  for (std::size_t i = 0; i < text.size(); ++i)
    text[i] = static_cast<char>((i * 7 + i / 256) & 0xff);
  std::vector<u8> out(160);
  for (std::size_t start = 0; start < 256; start += 3) {
    for (std::size_t n = 0; n <= 130; ++n) {
      std::fill(out.begin(), out.end(), 0xee);
      encode_bases(text.data() + start, n, out.data() + 1);
      ASSERT_EQ(out[0], 0xee);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[1 + i], kAsciiToCode[static_cast<u8>(text[start + i])])
            << "start " << start << " n " << n << " i " << i;
      ASSERT_EQ(out[1 + n], 0xee) << "start " << start << " n " << n;
    }
  }
}

TEST(Dna, CountMatchesMatchesTheScalarRule) {
  Rng rng(17);
  for (std::size_t n = 0; n <= 100; ++n) {
    std::vector<u8> a(n + 3), b(n + 3);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<u8>(rng.uniform(5));
      b[i] = rng.bernoulli(0.7) ? a[i] : static_cast<u8>(rng.uniform(5));
    }
    for (std::size_t off = 0; off < 3; ++off) {
      std::size_t want = 0;
      for (std::size_t i = 0; i < n; ++i) want += a[off + i] == b[off + i] && a[off + i] < 4;
      EXPECT_EQ(count_matches(a.data() + off, b.data() + off, n), want);
    }
  }
}

TEST(Dna, UnknownCharsMapToN) {
  const auto codes = encode_dna("XYZ-123");
  for (u8 c : codes) EXPECT_EQ(c, kBaseN);
}

TEST(Dna, Complement) {
  EXPECT_EQ(complement_code(0), 3);  // A -> T
  EXPECT_EQ(complement_code(1), 2);  // C -> G
  EXPECT_EQ(complement_code(2), 1);
  EXPECT_EQ(complement_code(3), 0);
  EXPECT_EQ(complement_code(kBaseN), kBaseN);
}

TEST(Dna, ReverseComplement) {
  EXPECT_EQ(reverse_complement_ascii("ACGT"), "ACGT");
  EXPECT_EQ(reverse_complement_ascii("AACG"), "CGTT");
  EXPECT_EQ(reverse_complement_ascii("AN"), "NT");
}

TEST(Dna, ReverseComplementInvolution) {
  const std::string s = "ACGTTGCAGGNNACT";
  EXPECT_EQ(reverse_complement_ascii(reverse_complement_ascii(s)), s);
}

TEST(Dna, GcContent) {
  EXPECT_DOUBLE_EQ(gc_content(encode_dna("GGCC")), 1.0);
  EXPECT_DOUBLE_EQ(gc_content(encode_dna("AATT")), 0.0);
  EXPECT_DOUBLE_EQ(gc_content(encode_dna("ACGT")), 0.5);
  EXPECT_DOUBLE_EQ(gc_content(encode_dna("NNNN")), 0.0);
  EXPECT_DOUBLE_EQ(gc_content({}), 0.0);
}

TEST(Reference, AddAndExtract) {
  Reference ref;
  ref.add(Sequence::from_ascii("chr1", "ACGTACGT"));
  ref.add(Sequence::from_ascii("chr2", "TTTT"));
  EXPECT_EQ(ref.num_contigs(), 2u);
  EXPECT_EQ(ref.total_length(), 12u);
  EXPECT_EQ(ref.find("chr2"), 1);
  EXPECT_EQ(ref.find("chrX"), -1);
  EXPECT_EQ(decode_dna(ref.extract(0, 2, 4)), "GTAC");
  EXPECT_EQ(decode_dna(ref.extract(0, 6, 100)), "GT");
  EXPECT_TRUE(ref.extract(0, 100, 4).empty());
}

TEST(Fasta, ParseBasic) {
  const auto seqs = parse_fasta(">s1 desc\nACGT\nACGT\n>s2\nTTT\n");
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0].name, "s1");
  EXPECT_EQ(seqs[0].to_ascii(), "ACGTACGT");
  EXPECT_EQ(seqs[1].name, "s2");
  EXPECT_EQ(seqs[1].to_ascii(), "TTT");
}

TEST(Fasta, ParseCrlfAndBlankLines) {
  const auto seqs = parse_fasta(">a\r\nAC\r\n\r\nGT\r\n");
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_EQ(seqs[0].to_ascii(), "ACGT");
}

TEST(Fasta, RoundTrip) {
  std::vector<Sequence> seqs{Sequence::from_ascii("x", "ACGTACGTACGT"),
                             Sequence::from_ascii("y", "GG")};
  const auto parsed = parse_fasta(to_fasta(seqs, 5));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].to_ascii(), "ACGTACGTACGT");
  EXPECT_EQ(parsed[1].to_ascii(), "GG");
}

TEST(Fastq, ParseBasic) {
  const auto seqs = parse_fastq("@r1\nACGT\n+\nIIII\n@r2 extra\nTT\n+\nII\n");
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0].name, "r1");
  EXPECT_EQ(seqs[0].to_ascii(), "ACGT");
  EXPECT_EQ(seqs[0].qual, "IIII");
  EXPECT_EQ(seqs[1].name, "r2");
}

TEST(Fastq, RoundTrip) {
  std::vector<Sequence> seqs{Sequence::from_ascii("q", "ACGTA")};
  const auto parsed = parse_fastq(to_fastq(seqs));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].to_ascii(), "ACGTA");
  EXPECT_EQ(parsed[0].qual, "IIIII");
}

TEST(Fastq, AutoDetect) {
  EXPECT_EQ(parse_sequences(">a\nAC\n")[0].name, "a");
  EXPECT_EQ(parse_sequences("@b\nAC\n+\nII\n")[0].name, "b");
  EXPECT_TRUE(parse_sequences("").empty());
  EXPECT_TRUE(parse_sequences("\n \r\n").empty());
  // A first record that is neither FASTA nor FASTQ is an error, not an
  // empty FASTA file.
  for (const char* text : {"ACGT\n", "r1\nACGT\n+\nIIII\n", ";comment\n>a\nAC\n"}) {
    try {
      parse_sequences(text);
      ADD_FAILURE() << "no SequenceFormatError for " << text;
    } catch (const SequenceFormatError& e) {
      EXPECT_EQ(e.record(), 1u);
      EXPECT_NE(std::string(e.what()).find("record 1"), std::string::npos) << e.what();
    }
  }
}

/// The line-by-line FASTA reader the single-pass parser replaced: the
/// oracle it must match record for record.
std::vector<Sequence> parse_fasta_by_lines(std::string_view text) {
  std::vector<Sequence> out;
  std::string ascii, name;
  bool in_record = false;
  auto flush = [&] {
    if (in_record) out.push_back(Sequence::from_ascii(name, ascii));
    ascii.clear();
  };
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, (nl == std::string_view::npos ? text.size() : nl) - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) {
      if (line[0] == '>') {
        flush();
        in_record = true;
        const std::size_t end = line.find_first_of(" \t");
        name = std::string(line.substr(1, end == std::string_view::npos ? end : end - 1));
      } else if (in_record) {
        ascii.append(line);
      }
    }
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  flush();
  return out;
}

TEST(Fasta, SinglePassParserMatchesTheLineReader) {
  // Random line structure: CRLF, blank lines, empty records, text before
  // the first header, '>' inside a line, a last line with or without its
  // newline, and bases of every kind.
  Rng rng(23);
  const std::string alphabet = "ACGTacgtNnuU-*>x ";
  for (int round = 0; round < 400; ++round) {
    std::string text;
    if (rng.bernoulli(0.2)) text += "junk before\n";
    const int records = static_cast<int>(rng.uniform(4));
    for (int r = 0; r < records; ++r) {
      text += ">r" + std::to_string(r) + (rng.bernoulli(0.5) ? " desc\tx" : "");
      text += rng.bernoulli(0.3) ? "\r\n" : "\n";
      for (u64 lines = rng.uniform(5); lines > 0; --lines) {
        for (u64 b = rng.uniform(90); b > 0; --b) text += alphabet[rng.uniform(alphabet.size())];
        if (rng.bernoulli(0.2)) text += "\r";
        text += "\n";
        if (rng.bernoulli(0.1)) text += "\n";
      }
    }
    if (!text.empty() && rng.bernoulli(0.3)) text.pop_back();
    const auto want = parse_fasta_by_lines(text);
    const auto got = parse_fasta(text);
    ASSERT_EQ(got.size(), want.size()) << text;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].name, want[i].name) << text;
      EXPECT_EQ(got[i].codes, want[i].codes) << text;
    }
  }
  ASSERT_EQ(parse_fasta(">only").size(), 1u);  // a header with no newline
  EXPECT_EQ(parse_fasta(">only")[0].name, "only");
}

/// The record number and reason a malformed FASTQ is rejected with.
std::pair<u64, std::string> fastq_error(std::string_view text) {
  try {
    parse_fastq(text);
  } catch (const SequenceFormatError& e) {
    return {e.record(), e.what()};
  }
  return {0, ""};
}

TEST(Fastq, MalformedRecordsRaiseTypedErrors) {
  const std::string good = "@r1\nACGT\n+\nIIII\n";
  auto [rec, what] = fastq_error(good + "r2\nAC\n+\nII\n");
  EXPECT_EQ(rec, 2u);
  EXPECT_NE(what.find("FASTQ record 2"), std::string::npos) << what;
  EXPECT_NE(what.find("'@'"), std::string::npos) << what;

  std::tie(rec, what) = fastq_error(good + "@r2\nAC\n-\nII\n");
  EXPECT_EQ(rec, 2u);
  EXPECT_NE(what.find("'+'"), std::string::npos) << what;

  std::tie(rec, what) = fastq_error(good + good + "@r3\nAC\n+");
  EXPECT_EQ(rec, 3u);
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;

  std::tie(rec, what) = fastq_error("@r1\nACGTACGTAC\n+\nIIII\n");
  EXPECT_EQ(rec, 1u);
  EXPECT_NE(what.find("quality length 4 differs from sequence length 10"), std::string::npos)
      << what;

  std::tie(rec, what) = fastq_error(good + "@r2\nACGT\n+\n");  // quality line missing
  EXPECT_EQ(rec, 2u);

  // Blank lines between records are not records; CRLF lines are fine.
  EXPECT_EQ(parse_fastq("\n" + good + "\n\n@r2\r\nAC\r\n+\r\nII\r\n").size(), 2u);
  EXPECT_EQ(fastq_error(good).first, 0u);
}

TEST(SequenceFile, MappedFileRaisesTheSameTypedError) {
  const std::string path = ::testing::TempDir() + "/mm_bad_record.fq";
  { std::ofstream(path) << "@r1\nACGT\n+\nIIII\nr2\nAC\n+\nII\n"; }
  try {
    read_sequence_file(path);
    ADD_FAILURE() << "no SequenceFormatError";
  } catch (const SequenceFormatError& e) {
    EXPECT_EQ(e.record(), 2u);
  }
  std::remove(path.c_str());
}

TEST(SequenceFile, ReadsWholeFileLikeTheParser) {
  // A file larger than the drain chunk, as FASTQ and as FASTA.
  std::vector<Sequence> seqs;
  for (int i = 0; i < 40; ++i)
    seqs.push_back(
        Sequence::from_ascii("r" + std::to_string(i), std::string(3'000 + i, "ACGT"[i % 4])));
  const std::string fq = ::testing::TempDir() + "/mm_read_file.fq";
  const std::string fa = ::testing::TempDir() + "/mm_read_file.fa";
  write_fastq_file(fq, seqs);
  write_fasta_file(fa, seqs);
  for (const auto& [path, text] :
       {std::pair{fq, to_fastq(seqs)}, std::pair{fa, to_fasta(seqs)}}) {
    const auto got = read_sequence_file(path);
    const auto want = parse_sequences(text);
    ASSERT_EQ(got.size(), want.size()) << path;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].name, want[i].name);
      EXPECT_EQ(got[i].codes, want[i].codes);
      EXPECT_EQ(got[i].qual, want[i].qual);
    }
    std::remove(path.c_str());
  }
}

TEST(SequenceFile, ReadsStreamsOfUnknownSize) {
  // /dev/stdin-style inputs report size 0; the reader must drain them.
  const std::string fifo = ::testing::TempDir() + "/mm_read_file.fifo";
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const std::string text = to_fastq({Sequence::from_ascii("q", std::string(200'000, 'C'))});
  std::thread writer([&] {
    std::FILE* f = std::fopen(fifo.c_str(), "wb");
    if (f == nullptr) return;
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  });
  const auto got = read_sequence_file(fifo);
  writer.join();
  std::remove(fifo.c_str());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].size(), 200'000u);
}

TEST(SequenceFile, AFileThatDoesNotOpenRaisesATypedErrorNamingIt) {
  const std::string path = ::testing::TempDir() + "/mm_no_such_file.fq";
  std::remove(path.c_str());
  for (const bool mapped : {true, false}) {
    try {
      if (mapped) read_sequence_file(path);
      else read_file(path);
      ADD_FAILURE() << "no InputFileError";
    } catch (const InputFileError& e) {
      EXPECT_EQ(e.path(), path);
      EXPECT_NE(std::string(e.what()).find("cannot open '" + path + "'"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SequenceFile, AReadErrorIsFatalNotATruncation) {
  // A directory opens but fails to read (EISDIR): both the buffered
  // --no-mmap path and read_sequence_file's fallback must stop, not
  // parse what they got so far as the whole file.
  const std::string dir = ::testing::TempDir() + "/mm_read_file.dir";
  ::mkdir(dir.c_str(), 0700);
  EXPECT_DEATH(read_file(dir), "cannot read file");
  EXPECT_DEATH(read_sequence_file(dir), "cannot read file");
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace manymap
