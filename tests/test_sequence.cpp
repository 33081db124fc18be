#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <string>
#include <thread>
#include <utility>

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

}  // namespace
}  // namespace manymap
