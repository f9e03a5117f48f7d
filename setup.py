"""Build script for the optional compiled kernel.

The package is fully functional without the extension: ``seaweedspec._engine``
falls back to the pure-Python kernel when ``seaweedspec._walk`` is absent.
A failed compile therefore downgrades to a warning instead of aborting the
install.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # pragma: no cover - exercised only on broken toolchains
            print(f"warning: compiled kernel skipped ({exc}); using pure-Python fallback")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # pragma: no cover
            print(f"warning: {ext.name} skipped ({exc}); using pure-Python fallback")


setup(
    ext_modules=[Extension("seaweedspec._walk", ["src/seaweedspec/_walk.c"])],
    cmdclass={"build_ext": optional_build_ext},
)
