// RequestScheduler as a pure data structure: dependency chains, barriers,
// response sequencing, weighted fair queuing, side jobs and parking —
// deterministically, with no sockets, threads or sleeps.

#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace manirank::serve {
namespace {

using Request = RequestScheduler::Request;
using Connection = RequestScheduler::Connection;

class SchedulerTest : public ::testing::Test {
 protected:
  /// Admits `line` on `conn`, classified the way the executor does it.
  Request* Admit(const std::shared_ptr<Connection>& conn,
                 const std::string& line) {
    return sched_.Admit(conn, ClassifyRequest(line), line);
  }

  /// Completes `node` with `response`; returns the newly runnable nodes.
  std::vector<Request*> Complete(Request* node, const std::string& response) {
    return sched_.Complete(node, response, &out_);
  }

  /// Pops every ready entry, in pop order.
  std::vector<Request*> PopAll() {
    std::vector<Request*> popped;
    while (!sched_.empty()) popped.push_back(sched_.Pop().node);
    return popped;
  }

  RequestScheduler sched_;
  std::string out_;
};

TEST_F(SchedulerTest, SameTableRequestsRunInArrivalOrder) {
  auto conn = std::make_shared<Connection>();
  Request* first = Admit(conn, "APPEND t 0 1 2");
  Request* second = Admit(conn, "RUN t A3");
  Request* third = Admit(conn, "STATS t");
  Request* other = Admit(conn, "STATS u");
  EXPECT_EQ(first->deps, 0u);
  EXPECT_EQ(second->deps, 1u);
  EXPECT_EQ(third->deps, 1u);
  EXPECT_EQ(other->deps, 0u);  // a different table commutes
  EXPECT_EQ(conn->in_flight(), 4u);
  EXPECT_EQ(Complete(first, "a"), std::vector<Request*>{second});
  EXPECT_EQ(Complete(second, "b"), std::vector<Request*>{third});
  EXPECT_TRUE(Complete(third, "c").empty());
  EXPECT_TRUE(Complete(other, "d").empty());
  EXPECT_EQ(out_, "a\nb\nc\nd\n");
  EXPECT_TRUE(conn->idle());
  EXPECT_EQ(conn->queued_line_bytes, 0u);
}

TEST_F(SchedulerTest, BarrierWaitsForPredecessorsAndHoldsSuccessors) {
  auto conn = std::make_shared<Connection>();
  Request* x = Admit(conn, "STATS t1");
  Request* y = Admit(conn, "RUN t2 A3");
  Request* barrier = Admit(conn, "CREATE t3 CYCLIC 4 2 2");
  Request* z = Admit(conn, "STATS t1");
  Request* w = Admit(conn, "STATS t4");
  EXPECT_TRUE(barrier->barrier);
  EXPECT_EQ(barrier->deps, 2u);
  EXPECT_EQ(z->deps, 2u);  // its table chain and the barrier
  EXPECT_EQ(w->deps, 1u);  // the barrier alone
  EXPECT_TRUE(Complete(x, "x").empty());
  EXPECT_EQ(Complete(y, "y"), std::vector<Request*>{barrier});
  EXPECT_EQ(Complete(barrier, "b"), (std::vector<Request*>{z, w}));
  Complete(w, "w");
  Complete(z, "z");
  EXPECT_EQ(out_, "x\ny\nb\nz\nw\n");
}

TEST_F(SchedulerTest, OutOfOrderCompletionsAreSequenced) {
  auto conn = std::make_shared<Connection>();
  Request* a = Admit(conn, "STATS t1");
  Request* b = Admit(conn, "STATS t2");
  Request* c = Admit(conn, "STATS t3");
  Complete(c, "C");
  EXPECT_EQ(out_, "");
  EXPECT_FALSE(conn->idle());
  Complete(a, "A");
  EXPECT_EQ(out_, "A\n");
  EXPECT_EQ(conn->in_flight(), 2u);
  Complete(b, "B");
  EXPECT_EQ(out_, "A\nB\nC\n");
  EXPECT_EQ(conn->in_flight(), 0u);
  EXPECT_TRUE(conn->idle());
}

TEST_F(SchedulerTest, DeadConnectionDiscardsResponses) {
  auto conn = std::make_shared<Connection>();
  Request* first = Admit(conn, "STATS t");
  Request* second = Admit(conn, "STATS t");
  EXPECT_EQ(sched_.Complete(first, "lost", nullptr),
            std::vector<Request*>{second});
  sched_.Complete(second, "lost", nullptr);
  EXPECT_EQ(out_, "");
  EXPECT_TRUE(conn->unfinished.empty());
}

TEST_F(SchedulerTest, SyntheticResponseIsCarriedAsABarrier) {
  auto conn = std::make_shared<Connection>();
  Request* before = Admit(conn, "STATS t");
  RequestClass oversize;
  oversize.barrier = true;
  Request* err = sched_.Admit(conn, oversize, "", "ERR bad-request: big");
  EXPECT_EQ(err->deps, 1u);
  EXPECT_EQ(err->synthetic_response, "ERR bad-request: big");
  EXPECT_EQ(Complete(before, "ok"), std::vector<Request*>{err});
  Complete(err, err->synthetic_response);
  EXPECT_EQ(out_, "ok\nERR bad-request: big\n");
}

/// Deterministic twin of ServeSchedulingTest.
/// LightTableNotStarvedBehindHotBacklog: eight hot-table RUNs from eight
/// connections are queued, one is popped (a worker takes it), then a
/// light-table RUN arrives — it must pop next, ahead of the seven billed
/// hot entries that arrived before it.
TEST_F(SchedulerTest, LightTablePopsAheadOfHotBacklog) {
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<Request*> hot;
  for (int i = 0; i < 8; ++i) {
    conns.push_back(std::make_shared<Connection>());
    hot.push_back(Admit(conns.back(), "RUN hot A3"));
    sched_.Enqueue(hot.back());
  }
  RequestScheduler::Entry running = sched_.Pop();
  EXPECT_EQ(running.node, hot[0]);
  auto light_conn = std::make_shared<Connection>();
  Request* light = Admit(light_conn, "RUN light A3");
  sched_.Enqueue(light);
  const std::vector<Request*> order = PopAll();
  ASSERT_EQ(order.size(), 8u);
  EXPECT_EQ(order[0], light);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(order[i], hot[i]);
}

TEST_F(SchedulerTest, LaneWeightsOrderEqualArrivals) {
  // One request per table, each on its own lane: a light verb bills one
  // slot, a compute verb four, a drain eight — so the second request of
  // each lane sorts in that order.
  auto conn = std::make_shared<Connection>();
  std::vector<Request*> firsts;
  for (const char* line : {"RUN d A3", "EVAL c 0 1", "STATS l"}) {
    firsts.push_back(Admit(std::make_shared<Connection>(), line));
    sched_.Enqueue(firsts.back());
  }
  Request* drain2 = Admit(conn, "RUN d2 A3");
  Request* light2 = Admit(conn, "STATS l2");
  // Bill each lane once more through a second request on the same lane.
  Request* d = Admit(std::make_shared<Connection>(), "RUN d A3");
  Request* c = Admit(std::make_shared<Connection>(), "EVAL c 0 1");
  Request* l = Admit(std::make_shared<Connection>(), "STATS l");
  sched_.Enqueue(d);
  sched_.Enqueue(c);
  sched_.Enqueue(l);
  sched_.Enqueue(drain2);
  sched_.Enqueue(light2);
  const std::vector<Request*> order = PopAll();
  // vstart 0: the three firsts and the two fresh lanes, in arrival order;
  // then l (1), c (4), d (8).
  EXPECT_EQ(order, (std::vector<Request*>{firsts[0], firsts[1], firsts[2],
                                          drain2, light2, l, c, d}));
}

TEST_F(SchedulerTest, SideJobIsStampedAtTheVirtualClock) {
  std::vector<Request*> hot;
  for (int i = 0; i < 3; ++i) {
    hot.push_back(Admit(std::make_shared<Connection>(), "RUN hot A3"));
    sched_.Enqueue(hot.back());
  }
  EXPECT_EQ(sched_.Pop().vstart, 0u);
  EXPECT_EQ(sched_.Pop().vstart, 8u);  // the clock is now 8
  bool ran = false;
  sched_.EnqueueJob([&ran] { ran = true; });
  RequestScheduler::Entry job = sched_.Pop();
  EXPECT_EQ(job.node, nullptr);
  EXPECT_EQ(job.vstart, 8u);  // ahead of the hot entry at 16
  job.job();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sched_.Pop().node, hot[2]);
  EXPECT_TRUE(sched_.empty());
}

TEST_F(SchedulerTest, ParkedRequestsComeBackOnRelease) {
  auto conn = std::make_shared<Connection>();
  Request* a = Admit(conn, "RUN a A3");
  Request* b1 = Admit(std::make_shared<Connection>(), "FLUSH b");
  Request* b2 = Admit(std::make_shared<Connection>(), "RUN b A4");
  sched_.Park(a);
  sched_.Park(b1);
  sched_.Park(b2);
  EXPECT_TRUE(sched_.empty());
  EXPECT_EQ(sched_.ReleaseParked("nosuch"), 0u);
  EXPECT_EQ(sched_.ReleaseParked("b"), 2u);
  EXPECT_EQ(PopAll(), (std::vector<Request*>{b1, b2}));
  EXPECT_EQ(sched_.ReleaseParked("b"), 0u);  // released once
  EXPECT_EQ(sched_.ReleaseAll(), 1u);
  EXPECT_EQ(PopAll(), std::vector<Request*>{a});
  EXPECT_EQ(sched_.ReleaseAll(), 0u);
}

}  // namespace
}  // namespace manirank::serve
