/**
 * @file
 * Persistent worker pool for the estimator's threaded shot
 * execution.
 *
 * The pre-pool threaded estimator spawned and joined fresh
 * std::threads on every estimate() call (src/sim/fidelity.cc's old
 * dispatch loop); an adaptive run dispatches one task wave per
 * stopping batch, so thread reuse turns a per-wave thread-creation
 * cost into a condition-variable handoff. A ThreadPool is created
 * once (FidelityEstimator keeps one lazily, and ShardSpec can carry a
 * caller-owned pool so many shards share workers) and serves any
 * number of task batches.
 *
 * Scheduling model: one FIFO queue, no work stealing. Tasks are
 * coarse (a contiguous shot range or a chunk of kept draws), so queue
 * contention is negligible and FIFO keeps dispatch order
 * deterministic — not that correctness needs it: the estimator keys
 * every result row by global shot index and re-reduces in global shot
 * order, so task completion order never reaches the output.
 *
 * TaskGroup is the structured-completion face: post tasks through a
 * group, wait() for all of them, and the first exception any task
 * threw is rethrown on the waiting thread (the estimator's
 * error-propagation contract, tested by tests/test_pipeline.cc). The raw
 * ThreadPool::post interface requires tasks that do not throw.
 */

#ifndef QRAMSIM_COMMON_THREADPOOL_HH
#define QRAMSIM_COMMON_THREADPOOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qramsim {

/** max(1, std::thread::hardware_concurrency()). */
unsigned hardwareThreads();

/**
 * The one thread-count resolution rule: 0 ("auto") means hardware
 * concurrency, anything else is taken literally. Shared by
 * estimate()/estimateSweep(), ShardSpec::resolvedThreads, and the
 * benches — previously three hand-rolled copies in fidelity.cc.
 */
unsigned resolveThreads(unsigned requested);

/**
 * Fixed-size persistent worker pool with a FIFO task queue.
 *
 * The destructor drains the queue: every task posted before
 * destruction runs to completion before the workers join, so a
 * TaskGroup can never be left waiting on a dropped task. Tasks posted
 * through the raw post() interface must not throw (a throwing task
 * terminates the process, as with a bare std::thread); TaskGroup
 * wraps its tasks to capture and re-throw instead.
 */
class ThreadPool
{
  public:
    /** @param threads worker count (0 = hardware concurrency). */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned size() const
    {
        return static_cast<unsigned>(workers.size());
    }

    /** Enqueue a task (thread-safe; callable from tasks). */
    void post(std::function<void()> fn);

  private:
    void workerLoop();

    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> queue;
    bool stopping = false;
    std::vector<std::thread> workers;
};

/**
 * A batch of tasks on a ThreadPool with structured completion:
 * run() posts tasks, wait() blocks until all of them finished and
 * rethrows the first exception any task threw (the rest are
 * discarded, like std::when_all semantics). The destructor waits —
 * without rethrowing — so tasks can never outlive the state their
 * closures capture.
 *
 * wait() must not be called from a pool worker: with every worker
 * blocked in wait() there is nobody left to run the queued tasks.
 * The estimator's pipeline coordinator therefore always runs on the
 * thread that called estimate(), never on the pool.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(ThreadPool &pool_) : pool(pool_) {}
    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Post one task; exceptions it throws are captured for wait(). */
    void run(std::function<void()> fn);

    /** Block until every task posted so far completed; rethrow the
     *  first captured exception (clearing it, so a later wait() after
     *  more run() calls reports only new failures). */
    void wait();

  private:
    ThreadPool &pool;
    std::mutex mu;
    std::condition_variable cv;
    std::size_t pending = 0;
    std::exception_ptr error;
};

} // namespace qramsim

#endif // QRAMSIM_COMMON_THREADPOOL_HH
