#include "common/parallel.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"

namespace svr
{

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("SVRSIM_JOBS")) {
        unsigned long v = 0;
        if (tryParseNumber(std::string_view(env), v) && v > 0)
            return v > 256 ? 256u : static_cast<unsigned>(v);
        warn("ignoring SVRSIM_JOBS='%s' (want a positive integer)", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1u;
}

unsigned
resolveJobs(unsigned jobs)
{
    return jobs > 0 ? jobs : defaultJobs();
}

void
parallelFor(std::size_t count, unsigned jobs,
            const std::function<void(std::size_t)> &body)
{
    std::mutex err_mtx;
    std::exception_ptr first_error;
    std::size_t suppressed = 0;
    const auto run = [&](std::size_t i) {
        try {
            body(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(err_mtx);
            if (!first_error)
                first_error = std::current_exception();
            else
                suppressed++;
        }
    };

    const std::size_t threads =
        std::min<std::size_t>(resolveJobs(jobs), count);
    if (threads <= 1) {
        for (std::size_t i = 0; i < count; i++)
            run(i);
    } else {
        std::atomic<std::size_t> next{0};
        const auto drain = [&] {
            for (std::size_t i = next++; i < count; i = next++)
                run(i);
        };
        std::vector<std::thread> helpers;
        helpers.reserve(threads - 1);
        for (std::size_t t = 1; t < threads; t++) {
            try {
                helpers.emplace_back(drain);
            } catch (const std::system_error &) {
                break; // fewer helpers; the caller still drains them all
            }
        }
        drain();
        for (std::thread &h : helpers)
            h.join();
    }

    if (first_error) {
        if (suppressed > 0) {
            warn("parallelFor: %zu additional error(s) suppressed "
                 "(rethrowing the first)",
                 suppressed);
        }
        std::rethrow_exception(first_error);
    }
}

} // namespace svr
