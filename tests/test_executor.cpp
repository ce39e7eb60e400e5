// The shared serving executor (serve/runtime.hpp) on its own: admission at
// exactly the queue bound, the per-tenant in-flight cap, stop() draining
// every accepted task before later submits resolve kShutdown, in-flight
// accounting that never counts a resolved future, bound validation, and
// the synthetic queue-wait span on sampled traces.
#include "serve/runtime.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <optional>
#include <semaphore>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace mcam::serve {
namespace {

struct Reply {
  RequestStatus status = RequestStatus::kOk;
  std::string error;
  int value = -1;
};

struct Job {
  int value = 0;
  std::promise<Reply> promise;
  std::chrono::steady_clock::time_point submitted = std::chrono::steady_clock::now();
  std::unique_ptr<obs::Trace> trace;
};

using JobExecutor = Executor<Job, Reply>;

/// Holds every task in `run` until open() - lets a test pin the worker on
/// one task while it fills the queue behind it.
class Gate {
 public:
  Reply run(Job& job) {
    started_.release();
    opened_.wait();
    return Reply{RequestStatus::kOk, "", job.value};
  }
  /// Blocks until a worker has entered run().
  void wait_started() { started_.acquire(); }
  void open() { open_.set_value(); }

 private:
  std::counting_semaphore<1024> started_{0};
  std::promise<void> open_;
  std::shared_future<void> opened_{open_.get_future().share()};
};

std::future<Reply> submit(JobExecutor& executor, Tenant& tenant, int value) {
  Job job;
  job.value = value;
  std::future<Reply> future = job.promise.get_future();
  executor.submit(std::move(job), tenant);
  return future;
}

bool ready(const std::future<Reply>& future) {
  return future.wait_for(std::chrono::seconds{0}) == std::future_status::ready;
}

ExecutorOptions options(std::size_t queue_capacity,
                        std::optional<std::size_t> tenant_cap = std::nullopt) {
  return ExecutorOptions{.owner = "TestFront",
                         .workers = 1,
                         .queue_capacity = queue_capacity,
                         .tenant_cap = tenant_cap,
                         .admission_span = false};
}

TEST(Executor, RejectsAtExactlyQueueCapacity) {
  Gate gate;
  Tenant tenant{"mcam_executor_test", {}, 16};
  JobExecutor executor{options(3), [&gate](Job& job) { return gate.run(job); }};

  std::vector<std::future<Reply>> accepted;
  accepted.push_back(submit(executor, tenant, 0));
  gate.wait_started();  // Task 0 is executing; the queue is empty.
  for (int i = 1; i <= 3; ++i) accepted.push_back(submit(executor, tenant, i));
  EXPECT_EQ(executor.queue_depth(), 3u);

  std::future<Reply> refused = submit(executor, tenant, 99);
  ASSERT_TRUE(ready(refused)) << "a full queue must answer at once";
  const Reply rejection = refused.get();
  EXPECT_EQ(rejection.status, RequestStatus::kRejected);
  EXPECT_NE(rejection.error.find("queue full (queue_capacity 3)"), std::string::npos)
      << rejection.error;

  gate.open();
  for (int i = 0; i <= 3; ++i) {
    const Reply reply = accepted[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(reply.status, RequestStatus::kOk);
    EXPECT_EQ(reply.value, i);
  }
  ServiceStats stats;
  tenant.stats.fill(stats);
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.queue_depth_peak, 3u);  // The global queue, without the runner.
  EXPECT_EQ(executor.queue_depth(), 0u);
}

TEST(Executor, TenantCapRejectsOnlyTheFullTenant) {
  Gate gate;
  Tenant noisy{"mcam_executor_test", {{"tenant", "noisy"}}, 16};
  Tenant quiet{"mcam_executor_test", {{"tenant", "quiet"}}, 16};
  JobExecutor executor{options(16, 2), [&gate](Job& job) { return gate.run(job); }};

  std::future<Reply> first = submit(executor, noisy, 0);
  gate.wait_started();
  std::future<Reply> second = submit(executor, noisy, 1);  // Queued: 2 in flight.
  EXPECT_EQ(noisy.in_flight.load(), 2u);

  std::future<Reply> refused = submit(executor, noisy, 2);
  ASSERT_TRUE(ready(refused));
  const Reply rejection = refused.get();
  EXPECT_EQ(rejection.status, RequestStatus::kRejected);
  EXPECT_NE(rejection.error.find("collection_queue_cap 2"), std::string::npos)
      << rejection.error;

  std::future<Reply> other = submit(executor, quiet, 3);  // Another tenant still fits.
  gate.open();
  EXPECT_EQ(first.get().value, 0);
  EXPECT_EQ(second.get().value, 1);
  EXPECT_EQ(other.get().value, 3);

  ServiceStats noisy_stats;
  noisy.stats.fill(noisy_stats);
  EXPECT_EQ(noisy_stats.accepted, 2u);
  EXPECT_EQ(noisy_stats.rejected, 1u);
  EXPECT_EQ(noisy_stats.queue_depth_peak, 2u);  // Per-tenant in-flight.
  ServiceStats quiet_stats;
  quiet.stats.fill(quiet_stats);
  EXPECT_EQ(quiet_stats.accepted, 1u);
  EXPECT_EQ(quiet_stats.rejected, 0u);
  EXPECT_EQ(noisy.in_flight.load(), 0u);
  EXPECT_EQ(quiet.in_flight.load(), 0u);
}

TEST(Executor, StopDrainsAcceptedThenAnswersShutdown) {
  Gate gate;
  Tenant tenant{"mcam_executor_test", {}, 16};
  JobExecutor executor{options(64), [&gate](Job& job) { return gate.run(job); }};

  std::vector<std::future<Reply>> accepted;
  accepted.push_back(submit(executor, tenant, 0));
  gate.wait_started();
  for (int i = 1; i < 8; ++i) accepted.push_back(submit(executor, tenant, i));

  std::thread stopper([&executor] { executor.stop(); });
  while (!executor.stopped()) std::this_thread::yield();
  std::future<Reply> late = submit(executor, tenant, 99);
  ASSERT_TRUE(ready(late));
  const Reply shutdown = late.get();
  EXPECT_EQ(shutdown.status, RequestStatus::kShutdown);
  EXPECT_EQ(shutdown.error, "TestFront stopped");

  gate.open();
  stopper.join();
  for (int i = 0; i < 8; ++i) {
    const Reply reply = accepted[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(reply.status, RequestStatus::kOk) << "accepted => drained";
    EXPECT_EQ(reply.value, i);
  }
  ServiceStats stats;
  tenant.stats.fill(stats);
  EXPECT_EQ(stats.accepted, 8u);
  EXPECT_EQ(stats.rejected, 0u);  // kShutdown is not a rejection.
  executor.stop();                // Idempotent.
}

TEST(Executor, ResolvedFutureIsNeverStillInFlight) {
  Tenant tenant{"mcam_executor_test", {}, 16};
  JobExecutor executor{options(8, 4),
                       [](Job& job) { return Reply{RequestStatus::kOk, "", job.value}; }};
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(submit(executor, tenant, i).get().value, i);
    EXPECT_EQ(tenant.in_flight.load(), 0u) << "iteration " << i;
    EXPECT_EQ(executor.queue_depth(), 0u) << "iteration " << i;
  }
}

TEST(Executor, ZeroBoundsThrowNamingTheField) {
  const auto run = [](Job&) { return Reply{}; };
  try {
    JobExecutor executor{options(0), run};
    ADD_FAILURE() << "queue_capacity 0 accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("TestFront: queue_capacity"), std::string::npos);
  }
  try {
    JobExecutor executor{options(4, 0), run};
    ADD_FAILURE() << "tenant cap 0 accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("collection_queue_cap"), std::string::npos);
  }
}

TEST(Executor, SampledTraceCarriesQueueWaitAndAdmission) {
  Tenant tenant{"mcam_executor_test", {}, 16};
  ExecutorOptions traced = options(8, 4);
  traced.admission_span = true;
  JobExecutor executor{traced, [](Job& job) { return Reply{RequestStatus::kOk, "", job.value}; }};

  Job job;
  job.trace = std::make_unique<obs::Trace>("executor.test");
  std::future<Reply> future = job.promise.get_future();
  executor.submit(std::move(job), tenant);
  ASSERT_EQ(future.get().status, RequestStatus::kOk);

  const std::vector<obs::TraceRecord> recent = obs::TraceSink::global().recent();
  ASSERT_FALSE(recent.empty());
  const obs::TraceRecord& record = recent.back();
  EXPECT_EQ(record.root, "executor.test");
  std::vector<std::string> names;
  for (const obs::SpanRecord& span : record.spans) names.emplace_back(span.name);
  EXPECT_EQ(names, (std::vector<std::string>{"admission", "queue-wait"}));
  for (const obs::SpanRecord& span : record.spans) {
    EXPECT_GE(span.start_ms, 0.0) << span.name;
    EXPECT_GE(span.elapsed_ms, 0.0) << span.name;
  }
  ServiceStats stats;
  tenant.stats.fill(stats);
  EXPECT_EQ(stats.traces_recorded, 1u);
}

}  // namespace
}  // namespace mcam::serve
