// bvlint fixture: violates BV002-BV004, BV006, BV008 and BV009, every
// one waived -> clean. (BV010 is header-only, so it cannot trip here.)
#include <cassert>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>

struct Locked
{
    std::mutex mutex_; // bvlint-allow(BV009)
};

enum class Kind { A, B };

struct Model
{
    void touch()
    {
        // bvlint-allow(BV002)
        (void)rand();
        assert(true); // bvlint-allow(BV004)
        std::cout << "touched" << std::endl; // bvlint-allow(BV006)
    }
};

int
unwrap(const std::unique_ptr<int> &p)
{
    return *p.get(); // bvlint-allow(BV008)
}

int
pick(Kind kind)
{
    switch (kind) {
      case Kind::A: return 0;
      default: return 1; // bvlint-allow(BV003)
    }
}
