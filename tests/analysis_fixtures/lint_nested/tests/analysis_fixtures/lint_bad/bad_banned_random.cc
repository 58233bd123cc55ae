// Fixture: a violation nested below tests/analysis_fixtures/, which a
// tree scan must skip (see LintTest.FixtureDirectorySkippedInScan).
#include <random>

namespace sketchml::fixture {

unsigned NestedDraw() {
  std::random_device rd;  // Would be sketchml-banned-random if scanned.
  return rd();
}

}  // namespace sketchml::fixture
