#include "src/trace/trace_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/sched/simulation.h"

namespace philly {
namespace {

std::vector<JobRecord> RunSmall() {
  WorkloadConfig workload = WorkloadConfig::Scaled(1, 13);
  workload.prepopulate_busy_gpus = 300;
  SimulationConfig config;
  config.vcs = workload.vcs;
  ClusterSimulation sim(config, WorkloadGenerator(workload).Generate());
  return sim.Run().jobs;
}

TEST(PlacementCodecTest, RoundTrip) {
  Placement p;
  p.shards.push_back({3, 8});
  p.shards.push_back({17, 2});
  const std::string encoded = EncodePlacement(p);
  EXPECT_EQ(encoded, "3:8|17:2");
  const Placement decoded = DecodePlacement(encoded);
  ASSERT_EQ(decoded.shards.size(), 2u);
  EXPECT_EQ(decoded.shards[0].server, 3);
  EXPECT_EQ(decoded.shards[0].gpus, 8);
  EXPECT_EQ(decoded.shards[1].server, 17);
  EXPECT_EQ(decoded.shards[1].gpus, 2);
}

TEST(PlacementCodecTest, EmptyPlacement) {
  EXPECT_EQ(EncodePlacement(Placement{}), "");
  EXPECT_TRUE(DecodePlacement("").Empty());
}

TEST(TraceIoTest, FullRoundTrip) {
  const auto jobs = RunSmall();
  ASSERT_GT(jobs.size(), 500u);

  std::stringstream jobs_csv;
  std::stringstream attempts_csv;
  std::stringstream util_csv;
  std::stringstream stdout_log;
  TraceWriter::WriteJobs(jobs, jobs_csv);
  TraceWriter::WriteAttempts(jobs, attempts_csv);
  TraceWriter::WriteUtilSegments(jobs, util_csv);
  TraceWriter::WriteStdoutLogs(jobs, stdout_log);

  const auto restored =
      TraceReader::ReadJobs(jobs_csv, attempts_csv, util_csv, stdout_log);
  ASSERT_EQ(restored.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    const JobRecord& a = jobs[i];
    const JobRecord& b = restored[i];
    EXPECT_EQ(a.spec.id, b.spec.id);
    EXPECT_EQ(a.spec.vc, b.spec.vc);
    EXPECT_EQ(a.spec.user, b.spec.user);
    EXPECT_EQ(a.spec.num_gpus, b.spec.num_gpus);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.finish_time, b.finish_time);
    EXPECT_EQ(a.InitialQueueDelay(), b.InitialQueueDelay());
    EXPECT_EQ(a.executed_epochs, b.executed_epochs);
    ASSERT_EQ(a.attempts.size(), b.attempts.size());
    for (size_t k = 0; k < a.attempts.size(); ++k) {
      EXPECT_EQ(a.attempts[k].start, b.attempts[k].start);
      EXPECT_EQ(a.attempts[k].end, b.attempts[k].end);
      EXPECT_EQ(a.attempts[k].failed, b.attempts[k].failed);
      EXPECT_EQ(a.attempts[k].preempted, b.attempts[k].preempted);
      EXPECT_EQ(EncodePlacement(a.attempts[k].placement),
                EncodePlacement(b.attempts[k].placement));
      EXPECT_EQ(a.attempts[k].log_tail, b.attempts[k].log_tail);
    }
    ASSERT_EQ(a.util_segments.size(), b.util_segments.size());
    for (size_t k = 0; k < a.util_segments.size(); ++k) {
      EXPECT_NEAR(a.util_segments[k].expected_util, b.util_segments[k].expected_util,
                  1e-6);
      EXPECT_EQ(a.util_segments[k].duration, b.util_segments[k].duration);
      EXPECT_EQ(a.util_segments[k].num_servers, b.util_segments[k].num_servers);
    }
  }
}

TEST(TraceIoTest, HeadersPresent) {
  const std::vector<JobRecord> empty;
  std::stringstream out;
  TraceWriter::WriteJobs(empty, out);
  EXPECT_NE(out.str().find("job_id,vc,user"), std::string::npos);
  std::stringstream attempts;
  TraceWriter::WriteAttempts(empty, attempts);
  EXPECT_NE(attempts.str().find("placement"), std::string::npos);
}

TEST(TraceIoTest, WriteDirectoryCreatesFiles) {
  const auto jobs = RunSmall();
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(TraceWriter::WriteDirectory(jobs, dir));
  std::ifstream check(dir + "/jobs.csv");
  EXPECT_TRUE(check.good());
}

TEST(TraceIoTest, WriteDirectoryFailsForMissingPath) {
  EXPECT_FALSE(TraceWriter::WriteDirectory({}, "/nonexistent/path/here"));
}

// The directory reader must see exactly what ReadJobs sees in the four
// streams WriteDirectory writes: re-serializing both results gives the same
// bytes.
TEST(TraceIoTest, ReadDirectoryRoundTripsWriteDirectory) {
  const auto jobs = RunSmall();
  const std::string dir = ::testing::TempDir() + "/read_directory_round_trip";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(TraceWriter::WriteDirectory(jobs, dir));
  std::vector<JobRecord> from_dir;
  ASSERT_TRUE(TraceReader::ReadDirectory(dir, &from_dir));

  std::stringstream jobs_csv, attempts_csv, util_csv, stdout_log;
  TraceWriter::WriteJobs(jobs, jobs_csv);
  TraceWriter::WriteAttempts(jobs, attempts_csv);
  TraceWriter::WriteUtilSegments(jobs, util_csv);
  TraceWriter::WriteStdoutLogs(jobs, stdout_log);
  const auto from_streams =
      TraceReader::ReadJobs(jobs_csv, attempts_csv, util_csv, stdout_log);

  ASSERT_EQ(from_dir.size(), jobs.size());
  const auto serialize = [](const std::vector<JobRecord>& records) {
    std::stringstream out;
    TraceWriter::WriteJobs(records, out);
    TraceWriter::WriteAttempts(records, out);
    TraceWriter::WriteUtilSegments(records, out);
    TraceWriter::WriteStdoutLogs(records, out);
    return out.str();
  };
  EXPECT_EQ(serialize(from_dir), serialize(from_streams));
}

TEST(TraceIoTest, ReadDirectoryFailsWhenAnyFileIsMissing) {
  for (const char* name :
       {"jobs.csv", "attempts.csv", "gpu_util.csv", "stdout.log"}) {
    SCOPED_TRACE(name);
    const std::string dir =
        ::testing::TempDir() + "/read_directory_missing_" + name;
    std::filesystem::create_directories(dir);
    ASSERT_TRUE(TraceWriter::WriteDirectory({}, dir));
    ASSERT_TRUE(std::filesystem::remove(dir + "/" + name));
    std::vector<JobRecord> jobs(3);
    EXPECT_FALSE(TraceReader::ReadDirectory(dir, &jobs));
    EXPECT_EQ(jobs.size(), 3u) << "output touched on failure";
  }
}

TEST(TraceIoTest, ReaderToleratesMalformedRows) {
  std::stringstream jobs_csv(
      "job_id,vc,user,submit_time,num_gpus,status,queue_delay_s,finish_time,"
      "attempts,retries,gpu_seconds,executed_epochs,planned_epochs,"
      "logs_convergence\n"
      "1,0,5,100,8,Passed,0,5000,1,0,39200,10,10,0\n"
      "garbage row\n"
      "2,1,6,200,1,Killed,60,9000,2,1,8740,3,20,1\n"
      ",,,,,,,,,,,,,\n");
  std::stringstream attempts_csv(
      "job_id,attempt,start,end,failed,preempted,placement\n"
      "1,0,100,5000,0,0,3:8\n"
      "999,0,1,2,0,0,1:1\n"
      "2,0,260,400,1,0,7:1\n"
      "2,1,500,9000,0,0,notaplacement\n"
      "short,row\n");
  std::stringstream util_csv(
      "job_id,segment,expected_util,duration_s,num_servers\n"
      "1,0,0.5,4900,1\n"
      "bogus\n"
      "2,0,0.25,140,1\n");
  std::stringstream stdout_log(
      "=== job 2 attempt 0\n"
      "MemoryError\n"
      "=== job 424242 attempt 9\n"
      "orphan text that belongs to no job\n");

  const auto jobs = TraceReader::ReadJobs(jobs_csv, attempts_csv, util_csv, stdout_log);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].spec.id, 1);
  EXPECT_EQ(jobs[0].attempts.size(), 1u);
  EXPECT_EQ(jobs[0].util_segments.size(), 1u);
  EXPECT_EQ(jobs[1].spec.id, 2);
  ASSERT_EQ(jobs[1].attempts.size(), 2u);
  EXPECT_TRUE(jobs[1].attempts[0].failed);
  ASSERT_EQ(jobs[1].attempts[0].log_tail.size(), 1u);
  EXPECT_EQ(jobs[1].attempts[0].log_tail[0], "MemoryError");
  // Unparseable placement decodes to empty, not a crash.
  EXPECT_TRUE(jobs[1].attempts[1].placement.Empty());
}

// Regression: numeric fields that failed to parse used to become 0 silently
// (std::from_chars errors were ignored), so a corrupted trace produced
// plausible-looking zeros instead of any signal. The reader now counts every
// bad field, and strict mode drops the whole row.
TEST(TraceIoTest, CountsNumericParseErrorsAndSupportsStrictMode) {
  const std::string jobs_header =
      "job_id,vc,user,submit_time,num_gpus,status,queue_delay_s,finish_time,"
      "attempts,retries,gpu_seconds,executed_epochs,planned_epochs,"
      "logs_convergence\n";
  const std::string jobs_rows =
      "1,0,5,100,8,Passed,0,5000,1,0,39200,10,10,0\n"
      "2,1,6,oops,1,Killed,60,9000,1,0,8740,3,20,1\n";  // bad submit_time
  const std::string attempts =
      "job_id,attempt,start,end,failed,preempted,placement\n"
      "1,0,100,5000,0,0,3:8\n"
      "2,0,xyz,9000,1,0,7:1\n";  // bad start
  const std::string util = "job_id,segment,expected_util,duration_s,num_servers\n";

  {
    std::stringstream jobs_csv(jobs_header + jobs_rows);
    std::stringstream attempts_csv(attempts);
    std::stringstream util_csv(util);
    std::stringstream stdout_log;
    TraceReadStats stats;
    const auto jobs = TraceReader::ReadJobs(jobs_csv, attempts_csv, util_csv,
                                            stdout_log, {}, &stats);
    // Tolerant default: rows kept, bad fields as 0 — but now counted.
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[1].spec.submit_time, 0);
    EXPECT_EQ(stats.numeric_parse_errors, 2);
    EXPECT_EQ(stats.rows_rejected, 0);
  }
  {
    std::stringstream jobs_csv(jobs_header + jobs_rows);
    std::stringstream attempts_csv(attempts);
    std::stringstream util_csv(util);
    std::stringstream stdout_log;
    TraceReadOptions options;
    options.strict = true;
    TraceReadStats stats;
    const auto jobs = TraceReader::ReadJobs(jobs_csv, attempts_csv, util_csv,
                                            stdout_log, options, &stats);
    // Strict: both corrupted rows are dropped whole — the job row for its bad
    // submit_time, and the attempt row because its owning job is gone (so its
    // own bad field is never even parsed).
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].spec.id, 1);
    ASSERT_EQ(jobs[0].attempts.size(), 1u);
    EXPECT_EQ(stats.numeric_parse_errors, 1);
    EXPECT_EQ(stats.rows_rejected, 2);
  }
}

// Regression: the stdout.log framing used to be a bare "=== job I attempt K"
// marker, so a log line that happened to look like a marker was re-parsed as
// one on read and the tail after it attached to the wrong attempt (or was
// dropped). The length-prefixed framing reads tails verbatim.
TEST(TraceIoTest, LogTailFramingSurvivesMarkerInjection) {
  JobRecord job;
  job.spec.id = 7;
  job.spec.num_gpus = 1;
  AttemptRecord attempt;
  attempt.index = 0;
  attempt.log_tail = {
      "normal line",
      "=== job 7 attempt 1",          // looks exactly like a legacy marker
      "=== job 999 attempt 0 lines 3",  // looks like a prefixed marker
      "trailing line",
  };
  job.attempts.push_back(attempt);

  std::stringstream jobs_csv;
  std::stringstream attempts_csv;
  std::stringstream util_csv;
  std::stringstream stdout_log;
  TraceWriter::WriteJobs({job}, jobs_csv);
  TraceWriter::WriteAttempts({job}, attempts_csv);
  TraceWriter::WriteUtilSegments({job}, util_csv);
  TraceWriter::WriteStdoutLogs({job}, stdout_log);

  const auto restored =
      TraceReader::ReadJobs(jobs_csv, attempts_csv, util_csv, stdout_log);
  ASSERT_EQ(restored.size(), 1u);
  ASSERT_EQ(restored[0].attempts.size(), 1u);
  EXPECT_EQ(restored[0].attempts[0].log_tail, attempt.log_tail);
}

TEST(TraceIoTest, ReaderAcceptsLegacyUnprefixedFraming) {
  JobRecord job;
  job.spec.id = 3;
  job.spec.num_gpus = 1;
  AttemptRecord attempt;
  attempt.index = 0;
  job.attempts.push_back(attempt);

  std::stringstream jobs_csv;
  std::stringstream attempts_csv;
  std::stringstream util_csv;
  TraceWriter::WriteJobs({job}, jobs_csv);
  TraceWriter::WriteAttempts({job}, attempts_csv);
  TraceWriter::WriteUtilSegments({job}, util_csv);
  std::stringstream stdout_log(
      "=== job 3 attempt 0\n"
      "old-style tail line\n");
  const auto restored =
      TraceReader::ReadJobs(jobs_csv, attempts_csv, util_csv, stdout_log);
  ASSERT_EQ(restored.size(), 1u);
  ASSERT_EQ(restored[0].attempts.size(), 1u);
  ASSERT_EQ(restored[0].attempts[0].log_tail.size(), 1u);
  EXPECT_EQ(restored[0].attempts[0].log_tail[0], "old-style tail line");
}

TEST(TraceIoTest, ReaderHandlesEmptyStreams) {
  std::stringstream empty1;
  std::stringstream empty2;
  std::stringstream empty3;
  std::stringstream empty4;
  EXPECT_TRUE(TraceReader::ReadJobs(empty1, empty2, empty3, empty4).empty());
}

}  // namespace
}  // namespace philly
