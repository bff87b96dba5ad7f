// Unit tests for cleaning-profile CSV serialization.

#include "clean/profile_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>

#include "workload/cleaning_profile_gen.h"

namespace uclean {
namespace {

TEST(ProfileIo, RoundTrips) {
  Result<CleaningProfile> profile = GenerateCleaningProfile(50);
  ASSERT_TRUE(profile.ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteProfileCsv(*profile, &out).ok());
  std::istringstream in(out.str());
  Result<CleaningProfile> loaded = ReadProfileCsv(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->costs, profile->costs);
  ASSERT_EQ(loaded->sc_probs.size(), profile->sc_probs.size());
  for (size_t l = 0; l < profile->sc_probs.size(); ++l) {
    EXPECT_DOUBLE_EQ(loaded->sc_probs[l], profile->sc_probs[l]);
  }
}

TEST(ProfileIo, AcceptsShuffledRowsAndComments) {
  std::istringstream in(
      "# campaign config\n"
      "xtuple,cost,sc_prob\n"
      "1,5,0.25\n"
      "0,2,0.75\n");
  Result<CleaningProfile> profile = ReadProfileCsv(&in);
  ASSERT_TRUE(profile.ok()) << profile.status();
  EXPECT_EQ(profile->costs, (std::vector<int64_t>{2, 5}));
  EXPECT_DOUBLE_EQ(profile->sc_probs[0], 0.75);
  EXPECT_DOUBLE_EQ(profile->sc_probs[1], 0.25);
}

TEST(ProfileIo, RejectsDuplicateRows) {
  std::istringstream in(
      "xtuple,cost,sc_prob\n"
      "0,2,0.75\n"
      "0,3,0.5\n");
  EXPECT_FALSE(ReadProfileCsv(&in).ok());
}

TEST(ProfileIo, RejectsGaps) {
  std::istringstream in(
      "xtuple,cost,sc_prob\n"
      "0,2,0.75\n"
      "2,3,0.5\n");
  EXPECT_FALSE(ReadProfileCsv(&in).ok());
}

TEST(ProfileIo, RejectsIdsPastTheRowsReadWithoutSizingByThem) {
  // The table is sized by the rows read, never by the largest id: a
  // crafted id must fail fast instead of allocating up to it.
  for (const char* id : {"4000000000000", "2147483648"}) {
    std::istringstream in(std::string("xtuple,cost,sc_prob\n0,2,0.75\n") +
                          id + ",3,0.5\n1,1,0.25\n");
    Result<CleaningProfile> profile = ReadProfileCsv(&in);
    ASSERT_FALSE(profile.ok()) << id;
    EXPECT_EQ(profile.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(profile.status().message().find("past the largest x-tuple id"),
              std::string::npos)
        << profile.status();
  }
  // In XTupleId range but past the row count: a gap. A repeated id is
  // reported as a duplicate first, at the line that repeats it.
  for (const auto& [rows, message] :
       {std::pair<const char*, const char*>{"0,2,0.75\n300000000,3,0.5\n"
                                            "1,1,0.25\n",
                                            "missing row for x-tuple 2"},
        {"0,2,0.75\n300000000,3,0.5\n300000000,3,0.5\n",
         "line 4: duplicate x-tuple 300000000"}}) {
    std::istringstream in(std::string("xtuple,cost,sc_prob\n") + rows);
    Result<CleaningProfile> profile = ReadProfileCsv(&in);
    ASSERT_FALSE(profile.ok()) << rows;
    EXPECT_NE(profile.status().message().find(message), std::string::npos)
        << profile.status();
  }
}

TEST(ProfileIo, RejectsInvalidValues) {
  std::istringstream in(
      "xtuple,cost,sc_prob\n"
      "0,0,0.75\n");  // cost must be >= 1
  EXPECT_FALSE(ReadProfileCsv(&in).ok());
  std::istringstream in2(
      "xtuple,cost,sc_prob\n"
      "0,1,1.75\n");  // sc-prob must be <= 1
  EXPECT_FALSE(ReadProfileCsv(&in2).ok());
  std::istringstream in3(
      "xtuple,cost,sc_prob\n"
      "-1,1,0.5\n");
  EXPECT_FALSE(ReadProfileCsv(&in3).ok());
}

TEST(ProfileIo, RejectsMissingHeaderAndBadShape) {
  std::istringstream in("0,2,0.75\n");
  EXPECT_FALSE(ReadProfileCsv(&in).ok());
  std::istringstream in2(
      "xtuple,cost,sc_prob\n"
      "0,2\n");
  EXPECT_FALSE(ReadProfileCsv(&in2).ok());
}

TEST(ProfileIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/uclean_profile_test.csv";
  Result<CleaningProfile> profile = GenerateCleaningProfile(10);
  ASSERT_TRUE(WriteProfileCsvFile(*profile, path).ok());
  Result<CleaningProfile> loaded = ReadProfileCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->costs, profile->costs);
  std::remove(path.c_str());
  EXPECT_EQ(ReadProfileCsvFile(path).status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace uclean
