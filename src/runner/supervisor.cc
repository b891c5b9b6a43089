#include "runner/supervisor.hh"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "runner/sweep.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace bvc
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** True once `path` holds one complete (newline-terminated) record. */
bool
journalHasHeader(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string first;
    return std::getline(in, first) && !in.eof();
}

/** Launch one worker attempt; returns its pid. fatal() on fork
 *  failure — without workers there is no campaign to salvage. */
pid_t
launchWorker(const WorkerSpec &spec, unsigned attempt)
{
    // Restarts resume the shard journal; but a worker that died
    // before its journal held a header (exec failure, or a kill
    // between creating the file and writing the header) must be
    // relaunched fresh, which truncates the file, or the resume open
    // would fail forever.
    const bool resume = attempt > 0 && journalHasHeader(spec.journalPath);
    const std::vector<std::string> &argv =
        resume ? spec.resumeArgv : spec.freshArgv;
    panicIf(argv.empty(), "supervisor: worker spec for shard " +
                              std::to_string(spec.shardIndex) +
                              " has an empty argv");

    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("supervisor: fork for shard " +
              std::to_string(spec.shardIndex) + " failed: " +
              std::strerror(errno));
    if (pid == 0) {
        // Child: lead a fresh process group so a budget kill reaps
        // the worker's whole tree (a shell wrapper's children would
        // otherwise survive the SIGKILL and keep inherited pipes
        // open), export the process-attempt number for shard-scoped
        // fault selection, then become the worker.
        ::setpgid(0, 0);
        const std::string attemptText = std::to_string(attempt);
        ::setenv(kWorkerAttemptEnv, attemptText.c_str(), 1);
        std::vector<char *> cargv;
        cargv.reserve(argv.size() + 1);
        for (const std::string &arg : argv)
            cargv.push_back(const_cast<char *>(arg.c_str()));
        cargv.push_back(nullptr);
        ::execv(cargv[0], cargv.data());
        // Only reached when exec itself failed; use _exit so no
        // parent-owned state (atexit handlers, buffers) runs twice.
        std::fprintf(stderr,
                     "supervisor: exec of '%s' failed: %s\n",
                     cargv[0], std::strerror(errno));
        ::_exit(127);
    }
    // Both sides call setpgid: whichever runs first wins, so the kill
    // below can never race a child still in the supervisor's group.
    ::setpgid(pid, pid);
    return pid;
}

/** Per-shard supervision state. */
struct ShardState
{
    enum Phase { Running, Backoff, Terminal };

    Phase phase = Running;      // where the shard is in its lifecycle
    pid_t pid = -1;             // live worker pid (Running only)
    unsigned attempt = 0;       // current process attempt, 0-based
    Clock::time_point attemptStart;
    Clock::time_point relaunchAt; // when Backoff ends
    bool killedByBudget = false; // SIGKILL sent for this attempt
    ShardOutcome outcome;
};

} // namespace

ErrorCategory
classifyWorkerExit(int waitStatus, std::string &message)
{
    if (WIFEXITED(waitStatus)) {
        const int code = WEXITSTATUS(waitStatus);
        if (code == 0) {
            message.clear();
            return ErrorCategory::None;
        }
        if (code == kFaultDieExitCode) {
            message = "worker died from an injected fault (exit " +
                      std::to_string(code) + ")";
            return ErrorCategory::Injected;
        }
        message = "worker exited with status " + std::to_string(code);
        return ErrorCategory::Config;
    }
    if (WIFSIGNALED(waitStatus)) {
        const int sig = WTERMSIG(waitStatus);
        message = "worker killed by signal " + std::to_string(sig) +
                  " (" + ::strsignal(sig) + ")";
        return ErrorCategory::Unknown;
    }
    message = "worker ended with unrecognized wait status " +
              std::to_string(waitStatus);
    return ErrorCategory::Unknown;
}

Supervisor::Supervisor(SupervisorOptions opts) : opts_(opts) {}

std::vector<ShardOutcome>
Supervisor::run(const std::vector<WorkerSpec> &workers)
{
    std::vector<ShardState> states(workers.size());
    for (std::size_t i = 0; i < workers.size(); ++i) {
        ShardState &s = states[i];
        s.outcome.shardIndex = workers[i].shardIndex;
        s.pid = launchWorker(workers[i], 0);
        s.attemptStart = Clock::now();
    }

    const auto findByPid = [&](pid_t pid) -> ShardState * {
        for (ShardState &s : states)
            if (s.phase == ShardState::Running && s.pid == pid)
                return &s;
        return nullptr;
    };

    std::size_t live = workers.size();
    while (live > 0) {
        // Reap every exited worker without blocking: the same sweep
        // must also service budget kills and backoff expiries.
        for (;;) {
            int status = 0;
            const pid_t pid = ::waitpid(-1, &status, WNOHANG);
            if (pid == 0)
                break;
            if (pid < 0) {
                if (errno == EINTR)
                    continue;
                if (errno == ECHILD)
                    break;
                fatal(std::string("supervisor: waitpid failed: ") +
                      std::strerror(errno));
            }
            ShardState *s = findByPid(pid);
            if (s == nullptr)
                continue; // not one of ours (should not happen)
            const std::size_t shard = s->outcome.shardIndex;
            std::string message;
            ErrorCategory category =
                classifyWorkerExit(status, message);
            // A SIGKILL we sent for the budget is a timeout, not an
            // anonymous signal death.
            if (s->killedByBudget) {
                category = ErrorCategory::Timeout;
                message = "worker exceeded its shard budget of " +
                          std::to_string(opts_.shardTimeoutSeconds) +
                          "s and was killed";
            }
            s->outcome.attempts = s->attempt + 1;
            if (category == ErrorCategory::None) {
                s->phase = ShardState::Terminal;
                s->outcome.ok = true;
                s->outcome.category = ErrorCategory::None;
                s->outcome.message.clear();
                --live;
                continue;
            }
            const std::string described =
                BvcError(category, message)
                    .withShard(shard, workers.size())
                    .what();
            if (s->attempt < opts_.restarts) {
                // Deterministic backoff, keyed by (seed, shard,
                // restart) exactly like per-job retry.
                const double delay = backoffDelaySeconds(
                    opts_.backoffSeed, shard, s->attempt + 1,
                    opts_.backoffBaseSeconds, opts_.backoffCapSeconds);
                warn("supervisor: " + described + "; restarting in " +
                     std::to_string(delay) + "s (attempt " +
                     std::to_string(s->attempt + 2) + "/" +
                     std::to_string(opts_.restarts + 1) + ")");
                s->phase = ShardState::Backoff;
                s->relaunchAt =
                    Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(delay));
            } else {
                warn("supervisor: " + described +
                     "; restart budget exhausted, degrading to a "
                     "partial report");
                s->phase = ShardState::Terminal;
                s->outcome.ok = false;
                s->outcome.category = category;
                s->outcome.message = message;
                --live;
            }
        }

        const auto now = Clock::now();
        for (std::size_t i = 0; i < states.size(); ++i) {
            ShardState &s = states[i];
            if (s.phase == ShardState::Backoff && now >= s.relaunchAt) {
                ++s.attempt;
                s.killedByBudget = false;
                s.pid = launchWorker(workers[i], s.attempt);
                s.attemptStart = Clock::now();
                s.phase = ShardState::Running;
            } else if (s.phase == ShardState::Running &&
                       !s.killedByBudget &&
                       opts_.shardTimeoutSeconds > 0.0 &&
                       secondsSince(s.attemptStart) >
                           opts_.shardTimeoutSeconds) {
                // Over budget: reclaim the whole process. SIGKILL is
                // not trappable, so the reap above is guaranteed to
                // observe the death and route it through the Timeout
                // classification.
                warn("supervisor: shard " +
                     std::to_string(s.outcome.shardIndex) +
                     " worker over its " +
                     std::to_string(opts_.shardTimeoutSeconds) +
                     "s budget; killing pid " + std::to_string(s.pid));
                s.killedByBudget = true;
                if (::kill(-s.pid, SIGKILL) != 0)
                    ::kill(s.pid, SIGKILL);
            }
        }

        if (live > 0)
            std::this_thread::sleep_for(std::chrono::duration<double>(
                opts_.pollIntervalSeconds > 0.0
                    ? opts_.pollIntervalSeconds
                    : 0.02));
    }

    std::vector<ShardOutcome> outcomes;
    outcomes.reserve(states.size());
    for (const ShardState &s : states)
        outcomes.push_back(s.outcome);
    return outcomes;
}

} // namespace bvc
