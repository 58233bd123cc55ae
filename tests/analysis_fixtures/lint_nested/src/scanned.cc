// Fixture: the one file a scan of lint_nested/ reads; it lints clean.
namespace sketchml::fixture {

int Scanned() { return 0; }

}  // namespace sketchml::fixture
