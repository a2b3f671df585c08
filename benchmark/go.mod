module olapmicro/benchmark

go 1.24

require olapmicro v0.0.0

replace olapmicro => ../
